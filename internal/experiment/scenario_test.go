package experiment

import (
	"errors"
	"reflect"
	"testing"

	"iotmpc/internal/core"
	"iotmpc/internal/sim"
)

func TestMatrixExpansion(t *testing.T) {
	m := Matrix{
		NodeCounts: []int{10, 20},
		Degrees:    []int{0, 3},
		LossRates:  []float64{0.0, 0.2, 0.4},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 5,
		Seed:       42,
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2*2*3*1 {
		t.Fatalf("expanded %d scenarios, want 12", len(scenarios))
	}
	for i, sc := range scenarios {
		if sc.Index != i {
			t.Fatalf("scenario %d has index %d", i, sc.Index)
		}
		if sc.Seed != sim.DeriveSeed(42, uint64(i)) {
			t.Fatalf("scenario %d seed %d, want DeriveSeed(42,%d)", i, sc.Seed, i)
		}
		if sc.Iterations != 5 {
			t.Fatalf("scenario %d iterations %d", i, sc.Iterations)
		}
	}
	// Protocol is the innermost axis; with one protocol, loss varies fastest.
	if scenarios[0].LossRate != 0.0 || scenarios[1].LossRate != 0.2 || scenarios[2].LossRate != 0.4 {
		t.Fatalf("unexpected loss ordering: %v %v %v",
			scenarios[0].LossRate, scenarios[1].LossRate, scenarios[2].LossRate)
	}
	if scenarios[0].Nodes != 10 || scenarios[6].Nodes != 20 {
		t.Fatalf("unexpected node ordering: %d %d", scenarios[0].Nodes, scenarios[6].Nodes)
	}
}

func TestMatrixDefaults(t *testing.T) {
	m := Matrix{NodeCounts: []int{12}, Iterations: 1}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	// Default axes: one degree (n/3), one loss rate (PHY default), S3+S4.
	if len(scenarios) != 2 {
		t.Fatalf("expanded %d scenarios, want 2", len(scenarios))
	}
	if scenarios[0].Protocol != core.S3 || scenarios[1].Protocol != core.S4 {
		t.Fatalf("default protocols: %v %v", scenarios[0].Protocol, scenarios[1].Protocol)
	}
}

func TestMatrixValidation(t *testing.T) {
	cases := []Matrix{
		{Iterations: 1},                       // no node counts
		{NodeCounts: []int{10}},               // no iterations
		{NodeCounts: []int{3}, Iterations: 1}, // too small
		{NodeCounts: []int{10}, LossRates: []float64{1.0}, Iterations: 1},                // loss out of range
		{NodeCounts: []int{10}, LossRates: []float64{-0.25}, Iterations: 1},              // negative loss
		{NodeCounts: []int{10}, VectorLens: []int{-1}, Iterations: 1},                    // negative veclen
		{NodeCounts: []int{10}, VectorLens: []int{core.MaxVectorLen + 1}, Iterations: 1}, // frame overflow
	}
	for i, m := range cases {
		if _, err := m.Scenarios(); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestMatrixVectorLenAxis(t *testing.T) {
	m := Matrix{
		NodeCounts: []int{10},
		VectorLens: []int{0, 4, 8},
		Protocols:  []core.Protocol{core.S3, core.S4},
		Iterations: 1,
		Seed:       5,
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 3*2 {
		t.Fatalf("expanded %d scenarios, want 6", len(scenarios))
	}
	// Protocol stays innermost: each vector length appears as an adjacent
	// S3/S4 pair.
	wantVec := []int{0, 0, 4, 4, 8, 8}
	for i, sc := range scenarios {
		if sc.VectorLen != wantVec[i] {
			t.Fatalf("scenario %d veclen = %d, want %d", i, sc.VectorLen, wantVec[i])
		}
	}
}

func TestMatrixVectorLenDefaultKeepsSeeds(t *testing.T) {
	// A matrix that does not sweep VectorLens must expand to the exact
	// scenarios (indices, seeds, encodings — hence cache keys) it did
	// before the axis existed.
	without, err := testMatrix().Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	withDefault := testMatrix()
	withDefault.VectorLens = []int{0}
	explicit, err := withDefault.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(without, explicit) {
		t.Fatal("explicit VectorLens {0} expands differently from nil")
	}
	for _, sc := range without {
		key, err := ScenarioCacheKey(sc)
		if err != nil {
			t.Fatal(err)
		}
		vecSc := sc
		vecSc.VectorLen = 8
		vecKey, err := ScenarioCacheKey(vecSc)
		if err != nil {
			t.Fatal(err)
		}
		if key == vecKey {
			t.Fatalf("scenario %d: veclen 8 shares a cache key with the scalar cell", sc.Index)
		}
	}
}

func TestRunScenarioVectorChainAccounting(t *testing.T) {
	// The batched-sealing contract the CI gate enforces, asserted at the
	// library layer: same chain length as the scalar round, one sealed
	// packet of 8·L+MIC per (source, destination), air bytes strictly
	// below L scalar chains.
	base := Scenario{Nodes: 12, Protocol: core.S4, Iterations: 2, Seed: 11}
	scalar, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	vec := base
	vec.VectorLen = 8
	vecRes, err := RunScenario(vec)
	if err != nil {
		t.Fatal(err)
	}
	if scalar.SharingChainLen == 0 || scalar.ShareAirBytes == 0 {
		t.Fatalf("scalar chain accounting empty: %+v", scalar)
	}
	if vecRes.SharingChainLen != scalar.SharingChainLen {
		t.Errorf("veclen 8 chain = %d, want %d", vecRes.SharingChainLen, scalar.SharingChainLen)
	}
	if vecRes.ShareAirBytes >= 8*scalar.ShareAirBytes {
		t.Errorf("veclen 8 air bytes %d not below 8× scalar %d",
			vecRes.ShareAirBytes, scalar.ShareAirBytes)
	}
	// Exact payload relation: (9+8·8+4) vector bytes per sub-slot vs
	// (9+8+4) scalar bytes.
	if vecRes.ShareAirBytes*21 != scalar.ShareAirBytes*77 {
		t.Errorf("air-byte ratio %d/%d, want exactly 77/21",
			vecRes.ShareAirBytes, scalar.ShareAirBytes)
	}
}

func testMatrix() Matrix {
	return Matrix{
		NodeCounts: []int{10, 14},
		LossRates:  []float64{0.1, 0.3},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 3,
		Seed:       7,
	}
}

func TestRunMatrixParallelMatchesSequential(t *testing.T) {
	// The acceptance bar for the parallel engine: identical results — every
	// float of every summary — for any worker count.
	sequential, err := NewRunner(WithWorkers(1)).Run(testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		parallel, err := NewRunner(WithWorkers(workers)).Run(testMatrix())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sequential, parallel) {
			t.Fatalf("workers=%d diverged from sequential run:\nseq: %+v\npar: %+v",
				workers, sequential, parallel)
		}
	}
}

func TestRunMatrixRepeatable(t *testing.T) {
	a, err := NewRunner().Run(testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().Run(testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same matrix, same seed, different results")
	}
}

func TestRunScenarioLossRateDegradesSuccess(t *testing.T) {
	base := Scenario{Nodes: 12, Protocol: core.S4, Iterations: 8, Seed: sim.DeriveSeed(7, 0)}
	clean := base
	clean.LossRate = 0.0
	noisy := base
	noisy.LossRate = 0.6

	cleanRes, err := RunScenario(clean)
	if err != nil {
		t.Fatal(err)
	}
	noisyRes, err := RunScenario(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if noisyRes.SuccessRate > cleanRes.SuccessRate {
		t.Fatalf("loss 0.6 succeeded more (%.3f) than loss 0.0 (%.3f)",
			noisyRes.SuccessRate, cleanRes.SuccessRate)
	}
}

func TestMatrixRenderers(t *testing.T) {
	results, err := NewRunner().Run(Matrix{
		NodeCounts: []int{10},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 2,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := MatrixTable(results)
	if table == "" || len(table) < 50 {
		t.Fatalf("table too short: %q", table)
	}
	csv := MatrixCSV(results)
	if csv == "" {
		t.Fatal("empty CSV")
	}
	// One header plus one line per scenario.
	lines := 0
	for _, c := range csv {
		if c == '\n' {
			lines++
		}
	}
	if lines != 1+len(results) {
		t.Fatalf("CSV has %d lines, want %d", lines, 1+len(results))
	}
}
