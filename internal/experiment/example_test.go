package experiment_test

import (
	"fmt"

	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
)

// A Matrix declares a sweep as per-axis value lists; Scenarios expands the
// cross product with a deterministic per-scenario seed. Feed the matrix to
// a Runner to execute it across a worker pool.
func ExampleMatrix_Scenarios() {
	m := experiment.Matrix{
		NodeCounts: []int{15, 30},
		LossRates:  []float64{0.0, 0.4},
		Protocols:  []core.Protocol{core.S3, core.S4},
		Iterations: 100,
		Seed:       1,
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		panic(err)
	}
	fmt.Println("scenarios:", len(scenarios))
	first := scenarios[0]
	fmt.Printf("first: n=%d loss=%.1f proto=%v\n", first.Nodes, first.LossRate, first.Protocol)
	last := scenarios[len(scenarios)-1]
	fmt.Printf("last:  n=%d loss=%.1f proto=%v\n", last.Nodes, last.LossRate, last.Protocol)
	fmt.Println("distinct seeds:", scenarios[0].Seed != scenarios[1].Seed)
	// Output:
	// scenarios: 8
	// first: n=15 loss=0.0 proto=S3
	// last:  n=30 loss=0.4 proto=S4
	// distinct seeds: true
}
