package stats_test

import (
	"fmt"

	"specchar/internal/stats"
)

// ExampleTwoSampleTTest reproduces the shape of the paper's Section VI-A
// usage: compare two CPI samples and read off the verdict against the
// large-sample 1.96 critical value.
func ExampleTwoSampleTTest() {
	// Two samples from visibly different populations.
	suiteP := []float64{0.9, 1.0, 1.1, 0.95, 1.05, 0.98, 1.02, 0.97, 1.03, 1.01}
	suiteQ := []float64{1.3, 1.4, 1.2, 1.35, 1.25, 1.32, 1.28, 1.38, 1.22, 1.31}
	res, err := stats.TwoSampleTTest(suiteP, suiteQ)
	if err != nil {
		panic(err)
	}
	fmt.Printf("H0 (equal means) rejected at 95%%: %v\n", res.RejectAt(0.05))
	// Output:
	// H0 (equal means) rejected at 95%: true
}
