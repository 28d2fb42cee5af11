package experiments

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"
)

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestAccuracyCSV(t *testing.T) {
	dir := t.TempDir()
	res, err := fig6(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, filepath.Join(dir, "fig6.csv"))
	if len(rows) < 2 {
		t.Fatal("no data rows")
	}
	if rows[0][0] != "setting" || len(rows[0]) != 6 {
		t.Fatalf("header = %v", rows[0])
	}
	// 9 settings × number of eval points.
	evals := len(res.Rows[0].Series.Round)
	if want := 1 + 9*evals; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
}

func TestRecoveryCSV(t *testing.T) {
	dir := t.TempDir()
	res, err := fig10(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, filepath.Join(dir, "fig10.csv"))
	if want := 1 + 4*tiny.Trials; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
}

func TestCostCSV(t *testing.T) {
	dir := t.TempDir()
	res, err := fig13(Params{Seed: 1}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, filepath.Join(dir, "fig13.csv"))
	if len(rows) != 31 { // header + m=1..30
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestCSVBadDir(t *testing.T) {
	res := &costResult{Fig: "figX"}
	if err := res.WriteCSV("/proc/definitely/not/writable"); err == nil {
		t.Fatal("want error for unwritable dir")
	}
}
