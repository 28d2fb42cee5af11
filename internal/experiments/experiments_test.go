package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tiny keeps CI runtime low; the CLI uses larger defaults.
var tiny = Params{Rounds: 10, Trials: 2, MaxN: 20, Seed: 1}

func TestDefaults(t *testing.T) {
	p := Params{}.Defaults()
	if p.Rounds <= 0 || p.Trials <= 0 || p.MaxN <= 0 {
		t.Fatalf("defaults not filled: %+v", p)
	}
	// Explicit values survive.
	p = Params{Rounds: 7, Trials: 3, MaxN: 10}.Defaults()
	if p.Rounds != 7 || p.Trials != 3 || p.MaxN != 10 {
		t.Fatalf("defaults overwrote explicit values: %+v", p)
	}
}

func TestTable1(t *testing.T) {
	r := table1()
	if r.Name() != "tab1" {
		t.Fatal("name wrong")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Go") {
		t.Fatalf("table1 output: %s", buf.String())
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := fig6(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name() != "fig6" {
		t.Fatal("name wrong")
	}
	if len(res.Rows) != 9 { // 3 settings × 3 distributions
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.FinalAcc < 0 || row.FinalAcc > 1 {
			t.Fatalf("accuracy out of range: %+v", row)
		}
		if row.Bytes <= 0 {
			t.Fatalf("no traffic recorded: %+v", row)
		}
		if len(row.Series.Round) == 0 {
			t.Fatal("empty series")
		}
	}
	// Two-layer must use less traffic than the baseline at equal rounds.
	var twoLayer, baseline int64
	for _, row := range res.Rows {
		if row.Dist.String() != "IID" {
			continue
		}
		if strings.HasPrefix(row.Setting, "two-layer n=3") {
			twoLayer = row.Bytes
		}
		if strings.HasPrefix(row.Setting, "baseline") {
			baseline = row.Bytes
		}
	}
	if twoLayer == 0 || baseline == 0 || twoLayer >= baseline {
		t.Fatalf("traffic: two-layer %d vs baseline %d", twoLayer, baseline)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "fig6") {
		t.Fatal("print missing header")
	}
}

func TestFig7And9AreViews(t *testing.T) {
	r7, err := fig7(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if r7.Name() != "fig7" {
		t.Fatal("fig7 name")
	}
	r9, err := fig9(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if r9.Name() != "fig9" {
		t.Fatal("fig9 name")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := fig8(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 2 fractions × 3 distributions
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
}

func TestFig10Recovery(t *testing.T) {
	// The trend is a difference of means whose spread is the U(T, 2T)
	// draw: two trials a row can invert it between T = 50 and T = 200
	// (seed 1 gives 245.5 vs 233.5 ms). Twenty put the ~140 ms gap of
	// the 1,000-trial sweep many standard errors clear of noise.
	p := tiny
	p.Trials = 20
	res, err := fig10(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 timeout settings", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.Stats.N != p.Trials {
			t.Fatalf("row %d: %d samples", i, row.Stats.N)
		}
		// A follower's timer starts when the last append sent before the
		// crash reaches it: that append left at most one heartbeat (T/3)
		// before the crash and still crosses a 15 ms link, so recovery
		// cannot beat T − T/3 + 15 ms. (The 1,000-trial sweep's fastest
		// at T = 150 is 148 ms against this bound's 115.)
		const linkMs = 15 // runRecovery's link latency
		if bound := row.TMs - row.TMs/3 + linkMs; row.Stats.Min < float64(bound) {
			t.Fatalf("T=%d: min recovery %.1f ms below T − T/3 + link latency = %d ms", row.TMs, row.Stats.Min, bound)
		}
	}
	// The paper's headline trend: larger timeouts → slower recovery.
	if res.Rows[0].Stats.Mean >= res.Rows[3].Stats.Mean {
		t.Fatalf("recovery time must grow with timeout: %v vs %v",
			res.Rows[0].Stats.Mean, res.Rows[3].Stats.Mean)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "paper avg") {
		t.Fatal("print missing paper reference")
	}
}

func TestFig11JoinSlowerThanElect(t *testing.T) {
	elect, err := fig10(tiny)
	if err != nil {
		t.Fatal(err)
	}
	join, err := fig11(tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Joining the FedAvg layer includes the election, so it takes
	// longer on average at every timeout setting.
	for i := range elect.Rows {
		if join.Rows[i].Stats.Mean <= elect.Rows[i].Stats.Mean {
			t.Fatalf("T=%d: join %.1f ms not above elect %.1f ms",
				elect.Rows[i].TMs, join.Rows[i].Stats.Mean, elect.Rows[i].Stats.Mean)
		}
	}
}

func TestFig12FedAvgCrash(t *testing.T) {
	res, err := fig12(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Stats.Mean <= 0 {
			t.Fatalf("T=%d: non-positive recovery", row.TMs)
		}
	}
}

func TestFig13ShapeAndCrossValidation(t *testing.T) {
	res, err := fig13(Params{Seed: 2}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d, want 30 (m=1..30)", len(res.Rows))
	}
	// Measured units must equal analytic units (± the one metadata-free
	// design: they are exactly equal).
	for _, row := range res.Rows {
		if row.MeasuredUnits >= 0 && row.MeasuredUnits != float64(row.Units) {
			t.Fatalf("%s: measured %.2f != analytic %d", row.Label, row.MeasuredUnits, row.Units)
		}
	}
	// Paper shape: m=6 ≈ 7.12 Gb, about one-tenth of m=1.
	var m1, m6 float64
	for _, row := range res.Rows {
		if row.Label == "m=1" {
			m1 = row.Gb
		}
		if row.Label == "m=6" {
			m6 = row.Gb
		}
	}
	if m6 < 6.5 || m6 > 7.8 {
		t.Fatalf("m=6 cost = %.2f Gb, want ≈ 7.12", m6)
	}
	if r := m1 / m6; r < 8 || r > 12 {
		t.Fatalf("m=1/m=6 ratio = %.2f, want ≈ 10", r)
	}
}

func TestFig14ShapeAndHeadline(t *testing.T) {
	res, err := fig14(Params{Seed: 3, MaxN: 30}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// 3 N values × (4 settings + baseline) = 15 rows.
	if len(res.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(res.Rows))
	}
	byLabel := map[string]costRow{}
	for _, row := range res.Rows {
		byLabel[row.Label] = row
	}
	// Headline: at N=30 the 2-3 setting is ≈10.36× below the baseline.
	two := byLabel["N=30 2-3 (n=3, k=2)"]
	base := byLabel["N=30 baseline (n=N)"]
	if two.Units == 0 || base.Units == 0 {
		t.Fatalf("missing rows: %v", byLabel)
	}
	ratio := float64(base.Units) / float64(two.Units)
	if ratio < 10.0 || ratio > 10.7 {
		t.Fatalf("N=30 2-3 reduction = %.2f, want ≈ 10.36", ratio)
	}
	// Fault tolerance costs more: k<n is above k=n at every N.
	for _, N := range []string{"N=10", "N=20", "N=30"} {
		kn := byLabel[N+" 2-3 (n=3, k=2)"]
		nn := byLabel[N+" 3-3 (n=3, k=3)"]
		if kn.Units <= nn.Units {
			t.Fatalf("%s: k-out-of-n (%d) not above n-out-of-n (%d)", N, kn.Units, nn.Units)
		}
	}
	// Measured equals analytic where measured.
	for _, row := range res.Rows {
		if row.MeasuredUnits >= 0 && row.MeasuredUnits != float64(row.Units) {
			t.Fatalf("%s: measured %.2f != analytic %d", row.Label, row.MeasuredUnits, row.Units)
		}
	}
}
