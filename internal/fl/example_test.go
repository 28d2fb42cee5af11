package fl_test

import (
	"fmt"

	"repro/internal/fl"
)

// FedAvg weights each model by its sample count (Sec. III-A).
func ExampleFedAvg_Aggregate() {
	models := [][]float64{
		{1.0, 0.0}, // peer with 100 samples
		{0.0, 1.0}, // peer with 300 samples
	}
	avg, err := fl.FedAvg{}.Aggregate(models, []float64{100, 300})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.2f\n", avg)
	// Output: [0.25 0.75]
}

// Robust upper-layer rules survive a poisoned input that would dominate
// the mean.
func ExampleCoordinateMedian() {
	models := [][]float64{{1.0}, {1.1}, {0.9}, {1e9}}
	med, _ := fl.CoordinateMedian{}.Aggregate(models, nil)
	avg, _ := fl.FedAvg{}.Aggregate(models, []float64{1, 1, 1, 1})
	fmt.Printf("median %.2f vs mean %.0f\n", med[0], avg[0])
	// Output: median 1.05 vs mean 250000001
}
