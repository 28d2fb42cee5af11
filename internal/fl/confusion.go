package fl

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// ConfusionMatrix counts predictions: Counts[true][predicted].
type ConfusionMatrix struct {
	Classes int
	Counts  [][]int
}

// NewConfusionMatrix creates an empty matrix for `classes` classes.
func NewConfusionMatrix(classes int) (*ConfusionMatrix, error) {
	if classes < 2 {
		return nil, fmt.Errorf("fl: confusion matrix needs ≥ 2 classes")
	}
	m := &ConfusionMatrix{Classes: classes, Counts: make([][]int, classes)}
	for i := range m.Counts {
		m.Counts[i] = make([]int, classes)
	}
	return m, nil
}

// Add records one (true, predicted) pair.
func (m *ConfusionMatrix) Add(truth, pred int) error {
	if truth < 0 || truth >= m.Classes || pred < 0 || pred >= m.Classes {
		return fmt.Errorf("fl: labels (%d,%d) out of [0,%d)", truth, pred, m.Classes)
	}
	m.Counts[truth][pred]++
	return nil
}

// Accuracy is the trace over the total.
func (m *ConfusionMatrix) Accuracy() float64 {
	diag, total := 0, 0
	for i, row := range m.Counts {
		for j, c := range row {
			total += c
			if i == j {
				diag += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diag) / float64(total)
}

// PerClassRecall returns recall for each true class (NaN-free: classes
// with no samples report 0).
func (m *ConfusionMatrix) PerClassRecall() []float64 {
	out := make([]float64, m.Classes)
	for i, row := range m.Counts {
		total := 0
		for _, c := range row {
			total += c
		}
		if total > 0 {
			out[i] = float64(row[i]) / float64(total)
		}
	}
	return out
}

// String renders a compact table.
func (m *ConfusionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confusion (%d classes, acc %.1f%%):\n", m.Classes, 100*m.Accuracy())
	for i, row := range m.Counts {
		fmt.Fprintf(&b, "  true %2d:", i)
		for _, c := range row {
			fmt.Fprintf(&b, " %5d", c)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Confusion evaluates model over test and returns the confusion matrix.
func Confusion(model *nn.Model, test *dataset.Dataset, flat bool) (*ConfusionMatrix, error) {
	if test.Len() == 0 {
		return nil, fmt.Errorf("fl: empty test set")
	}
	cm, err := NewConfusionMatrix(test.Classes)
	if err != nil {
		return nil, err
	}
	const batchSize = 256
	var buf batchBuffer
	for lo := 0; lo < test.Len(); lo += batchSize {
		hi := lo + batchSize
		if hi > test.Len() {
			hi = test.Len()
		}
		x, labels, err := buf.fill(test, flat, lo, hi)
		if err != nil {
			return nil, err
		}
		logits, err := model.Forward(x, false)
		if err != nil {
			return nil, err
		}
		classes := logits.Dim(1)
		data := logits.Data()
		for i, truth := range labels {
			row := data[i*classes : (i+1)*classes]
			best, bi := row[0], 0
			for j, v := range row {
				if v > best {
					best, bi = v, j
				}
			}
			if err := cm.Add(truth, bi); err != nil {
				return nil, err
			}
		}
	}
	return cm, nil
}
