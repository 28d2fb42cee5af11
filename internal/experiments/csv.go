package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/core"
)

// CSVWriter is implemented by results that can export their full data
// series (not just the printed summary) for external plotting.
type CSVWriter interface {
	Result
	// WriteCSV writes <dir>/<name>.csv.
	WriteCSV(dir string) error
}

func writeCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// WriteCSV implements CSVWriter: one row per (setting, distribution,
// round) with accuracy, loss and cumulative traffic.
func (r *AccuracyResult) WriteCSV(dir string) error {
	header := []string{"setting", "distribution", "round", "test_acc", "train_loss_ma", "cum_bytes"}
	var rows [][]string
	for _, row := range r.Rows {
		lossMA := core.MovingAverage(row.Series.TrainLoss, 5)
		for i, round := range row.Series.Round {
			rows = append(rows, []string{
				row.Setting, row.Dist.String(), strconv.Itoa(round),
				ftoa(row.Series.TestAcc[i]), ftoa(lossMA[i]),
				strconv.FormatInt(row.Series.Bytes[i], 10),
			})
		}
	}
	return writeCSV(dir, r.Fig, header, rows)
}

// WriteCSV implements CSVWriter: one row per trial.
func (r *RecoveryResult) WriteCSV(dir string) error {
	header := []string{"timeout_t_ms", "trial", "recovery_ms"}
	var rows [][]string
	for _, row := range r.Rows {
		for i, s := range row.Samples {
			rows = append(rows, []string{strconv.Itoa(row.TMs), strconv.Itoa(i), ftoa(s)})
		}
	}
	return writeCSV(dir, r.Fig, header, rows)
}

// WriteCSV implements CSVWriter: one row per cost point.
func (r *CostResult) WriteCSV(dir string) error {
	header := []string{"setting", "units_w", "gb_paper_cnn", "measured_units"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label, strconv.FormatInt(row.Units, 10), ftoa(row.Gb), ftoa(row.MeasuredUnits),
		})
	}
	return writeCSV(dir, r.Fig, header, rows)
}
