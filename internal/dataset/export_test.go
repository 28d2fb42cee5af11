package dataset

// ClassCounts returns the number of samples per label.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, s := range d.Samples {
		counts[s.Label]++
	}
	return counts
}
