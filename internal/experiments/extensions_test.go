package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryNamesAndRun(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("registered %d experiments: %v", len(names), names)
	}
	res, err := Run("tab1", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name() != "tab1" {
		t.Fatal("wrong result")
	}
	if _, err := Run("nope", tiny); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

func TestExt1SecureUpperCost(t *testing.T) {
	res, err := Ext1SecureUpperCost(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 6 m values × 2 variants
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Secure upper always costs at least as much as plain, and every row
	// carries the cost of a real round, equal to its closed form.
	for i := 0; i < len(res.Rows); i += 2 {
		plain, secure := res.Rows[i], res.Rows[i+1]
		if secure.Units < plain.Units {
			t.Fatalf("%s (%d) cheaper than %s (%d)", secure.Label, secure.Units, plain.Label, plain.Units)
		}
		for _, row := range []CostRow{plain, secure} {
			if row.MeasuredUnits != float64(row.Units) {
				t.Fatalf("%s: measured %.2f, closed form %d", row.Label, row.MeasuredUnits, row.Units)
			}
		}
	}
}

func TestExt2DPUtility(t *testing.T) {
	res, err := Ext2DPUtility(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Setting != "no DP" {
		t.Fatalf("first row = %q", res.Rows[0].Setting)
	}
	// The strongest privacy (last row) must not beat no-DP by much; on
	// tiny runs noise dominates, so just require valid accuracies.
	for _, row := range res.Rows {
		if row.FinalAcc < 0 || row.FinalAcc > 1 {
			t.Fatalf("accuracy out of range: %+v", row)
		}
	}
}

func TestExt3RobustAggregation(t *testing.T) {
	res, err := Ext3RobustAggregation(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 3 {
		t.Fatalf("rows = %d", len(res.Data))
	}
	dev := func(i int) float64 {
		v, err := strconv.ParseFloat(res.Data[i][1], 64)
		if err != nil {
			t.Fatalf("bad deviation %q", res.Data[i][1])
		}
		return v
	}
	// FedAvg is corrupted by the poisoned subgroup; median/trimmed are not.
	if dev(0) < 1e4 {
		t.Fatalf("fedavg deviation %v should be huge", dev(0))
	}
	if dev(1) > 10 || dev(2) > 10 {
		t.Fatalf("robust rules leaked the poison: %v / %v", dev(1), dev(2))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "coordinate-median") {
		t.Fatal("print missing rows")
	}
}

func TestRecoveryPrintIncludesDistribution(t *testing.T) {
	res, err := Fig10(Params{Rounds: 5, Trials: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "distribution") {
		t.Fatal("print missing histogram section")
	}
}
