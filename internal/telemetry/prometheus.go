package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled so a
// real fleet can scrape the registry without pulling in a client
// library. The mapping from the registry's slash-hierarchical names:
//
//   - every name is sanitized to [a-zA-Z_:][a-zA-Z0-9_:]* with a
//     "p2pfl_" namespace prefix ('/' and other invalid runes → '_'),
//   - counters get the conventional "_total" suffix and TYPE counter,
//   - gauges keep their sanitized name and TYPE gauge,
//   - histograms emit cumulative "_bucket" series with an le label per
//     upper bound plus le="+Inf", then "_sum" and "_count" — exactly the
//     shape promtool and PromQL's histogram_quantile expect.
//
// Output is sorted by metric name so equal snapshots give equal bytes
// (the golden-file contract of /debug/metrics).

// PrometheusContentType is the Content-Type header for the text format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// prometheusName sanitizes a registry metric name into a Prometheus
// metric name: the "p2pfl_" namespace prefix plus the name with every
// rune outside [a-zA-Z0-9_:] replaced by '_'.
func prometheusName(name string) string {
	var b strings.Builder
	b.Grow(len("p2pfl_") + len(name))
	b.WriteString("p2pfl_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatPromValue renders a sample value the way Prometheus expects:
// shortest float representation, with +Inf/-Inf/NaN spelled out.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the text exposition format.
// Metric families are sorted by exposed name; every family carries HELP
// (the original registry name, so a scrape can be traced back) and TYPE
// lines.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	type family struct {
		name  string // exposed (sanitized) name
		lines []string
	}
	var families []family

	for name, v := range s.Counters {
		pn := prometheusName(name) + "_total"
		families = append(families, family{name: pn, lines: []string{
			fmt.Sprintf("# HELP %s Counter %q.", pn, name),
			fmt.Sprintf("# TYPE %s counter", pn),
			fmt.Sprintf("%s %d", pn, v),
		}})
	}
	for name, v := range s.Gauges {
		pn := prometheusName(name)
		families = append(families, family{name: pn, lines: []string{
			fmt.Sprintf("# HELP %s Gauge %q.", pn, name),
			fmt.Sprintf("# TYPE %s gauge", pn),
			fmt.Sprintf("%s %s", pn, formatPromValue(v)),
		}})
	}
	for name, h := range s.Histograms {
		pn := prometheusName(name)
		lines := []string{
			fmt.Sprintf("# HELP %s Histogram %q.", pn, name),
			fmt.Sprintf("# TYPE %s histogram", pn),
		}
		// The registry stores per-bucket counts; Prometheus buckets are
		// cumulative, with the +Inf bucket equal to the total count.
		var cum int64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			lines = append(lines, fmt.Sprintf("%s_bucket{le=%q} %d", pn, formatPromValue(bound), cum))
		}
		lines = append(lines,
			fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d", pn, h.Count),
			fmt.Sprintf("%s_sum %s", pn, formatPromValue(h.Sum)),
			fmt.Sprintf("%s_count %d", pn, h.Count),
		)
		families = append(families, family{name: pn, lines: lines})
	}

	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })
	var b strings.Builder
	for _, f := range families {
		for _, line := range f.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePrometheus snapshots the registry and renders it in the text
// exposition format. Safe on a nil registry (writes nothing but is a
// valid, empty exposition).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}
