package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrometheusName: sanitization maps slash-hierarchical registry
// names into the Prometheus identifier charset under the p2pfl_ prefix.
func TestPrometheusName(t *testing.T) {
	cases := map[string]string{
		"raft/elections_won":        "p2pfl_raft_elections_won",
		"transport/peer3/bytes":     "p2pfl_transport_peer3_bytes",
		"weird name-with.runes/µs":  "p2pfl_weird_name_with_runes__s",
		"already_clean":             "p2pfl_already_clean",
		"colons:are:legal":          "p2pfl_colons:are:legal",
		"sac/phase_share_us":        "p2pfl_sac_phase_share_us",
		"round/fedavg_weight_total": "p2pfl_round_fedavg_weight_total",
	}
	for in, want := range cases {
		if got := prometheusName(in); got != want {
			t.Errorf("PrometheusName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPrometheusCumulativeBuckets: the registry stores per-bucket
// counts; the exposition must emit cumulative buckets with the +Inf
// bucket equal to the total observation count.
func TestPrometheusCumulativeBuckets(t *testing.T) {
	reg := New()
	h := reg.Histogram("x/latency_us", []float64{100, 1000, 10000})
	h.Observe(50)    // bucket le=100
	h.Observe(500)   // bucket le=1000
	h.Observe(700)   // bucket le=1000
	h.Observe(99999) // overflow

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`p2pfl_x_latency_us_bucket{le="100"} 1`,
		`p2pfl_x_latency_us_bucket{le="1000"} 3`,
		`p2pfl_x_latency_us_bucket{le="10000"} 3`,
		`p2pfl_x_latency_us_bucket{le="+Inf"} 4`,
		`p2pfl_x_latency_us_count 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q:\n%s", want, out)
		}
	}
}

// TestPrometheusCounterSuffixAndTypes: counters carry the _total suffix
// and a counter TYPE; gauges keep their name with a gauge TYPE.
func TestPrometheusCounterSuffixAndTypes(t *testing.T) {
	reg := New()
	reg.Counter("raft/msgs_sent").Add(7)
	reg.Gauge("round/progress").Set(0.5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE p2pfl_raft_msgs_sent_total counter",
		"p2pfl_raft_msgs_sent_total 7",
		"# TYPE p2pfl_round_progress gauge",
		"p2pfl_round_progress 0.5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q:\n%s", want, out)
		}
	}
}

// TestPrometheusDeterministic: equal registries render byte-identical
// expositions (families sorted by name), and a nil registry renders the
// valid empty exposition.
func TestPrometheusDeterministic(t *testing.T) {
	build := func() *Registry {
		reg := New()
		reg.Counter("b/two").Add(2)
		reg.Counter("a/one").Inc()
		reg.Gauge("c/three").Set(3)
		reg.Histogram("d/four_us", []float64{10}).Observe(5)
		return reg
	}
	var b1, b2 bytes.Buffer
	if err := build().WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("equal registries rendered different bytes:\n%s\n---\n%s", b1.String(), b2.String())
	}
	idx := strings.Index(b1.String(), "p2pfl_a_one_total")
	idx2 := strings.Index(b1.String(), "p2pfl_b_two_total")
	if idx < 0 || idx2 < 0 || idx > idx2 {
		t.Errorf("families not sorted by exposed name:\n%s", b1.String())
	}

	var empty bytes.Buffer
	if err := (*Registry)(nil).WritePrometheus(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("nil registry exposition = %q, want empty", empty.String())
	}
}
