package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"iotmpc/internal/core"
	"iotmpc/internal/phy"
	"iotmpc/internal/trace"
)

func TestParseBackendSpecs(t *testing.T) {
	// Default and explicit log-distance resolve to a nil factory (core's
	// default).
	for _, spec := range []string{"", DefaultBackend} {
		f, err := ParseBackend(spec)
		if err != nil || f != nil {
			t.Fatalf("spec %q: factory %v err %v, want nil nil", spec, f, err)
		}
	}
	params := phy.IdealParams()
	pos := []phy.Position{{}, {X: 10}}

	f, err := ParseBackend("unitdisk")
	if err != nil {
		t.Fatal(err)
	}
	r, err := f(params, pos, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.(*phy.UnitDisk).Radius(); got != phy.UnitDiskRadius(params) {
		t.Fatalf("bare unitdisk radius %v, want derived", got)
	}

	f, err = ParseBackend("unitdisk:25:5")
	if err != nil {
		t.Fatal(err)
	}
	r, err = f(params, pos, 1)
	if err != nil {
		t.Fatal(err)
	}
	u := r.(*phy.UnitDisk)
	if u.Radius() != 25 || u.GrayWidth() != 5 {
		t.Fatalf("unitdisk:25:5 → radius %v gray %v", u.Radius(), u.GrayWidth())
	}

	f, err = ParseBackend("trace:line5")
	if err != nil {
		t.Fatal(err)
	}
	r, err = f(params, make([]phy.Position, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumNodes() != 5 {
		t.Fatalf("bundled trace nodes %d", r.NumNodes())
	}

	// A trace loaded from disk.
	dir := t.TempDir()
	path := filepath.Join(dir, "two.csv")
	if err := os.WriteFile(path, []byte("nodes,2\n0,1,1\n1,0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBackend("trace:" + path); err != nil {
		t.Fatalf("trace from disk: %v", err)
	}
}

func TestParseBackendErrors(t *testing.T) {
	for _, spec := range []string{
		"warp-drive",
		"logdist:3",
		"unitdisk:tiny",
		"unitdisk:10:wide",
		"unitdisk:-40",  // negative radius must not silently derive the default
		"unitdisk:0:-1", // negative gray width fails at parse time
		"unitdisk:NaN",  // NaN radius
		"trace:",
		"trace:/no/such/file.csv",
		"trace:testbed1O", // typo'd bundled name resolves against the bundle
	} {
		if _, err := ParseBackend(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %q: error %v, want ErrBadSpec", spec, err)
		}
	}
}

func TestMatrixRejectsUnknownBackendAtExpansion(t *testing.T) {
	m := Matrix{
		Backends:   []string{"logdist", "warp-drive"},
		NodeCounts: []int{10},
		Iterations: 1,
	}
	if _, err := m.Scenarios(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown backend at expansion: %v", err)
	}
}

// TestMatrixRejectsTraceNodeMismatchAtExpansion: a trace backend's fixed
// node count must be checked against every NodeCounts entry before any
// simulation runs, not discovered mid-sweep.
func TestMatrixRejectsTraceNodeMismatchAtExpansion(t *testing.T) {
	m := Matrix{
		Backends:   []string{"logdist", "trace:testbed10"},
		NodeCounts: []int{10, 15}, // 15 conflicts with the 10-node trace
		Iterations: 1,
	}
	if _, err := m.Scenarios(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("trace/node-count conflict at expansion: %v", err)
	}
	m.NodeCounts = []int{10}
	if _, err := m.Scenarios(); err != nil {
		t.Fatalf("matching node count rejected: %v", err)
	}
}

func TestMatrixBackendAxisExpansion(t *testing.T) {
	m := Matrix{
		Backends:   []string{"logdist", "unitdisk"},
		NodeCounts: []int{10},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 1,
		Seed:       3,
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("expanded %d scenarios, want 2", len(scenarios))
	}
	// Backend is the outermost axis.
	if scenarios[0].Backend != "logdist" || scenarios[1].Backend != "unitdisk" {
		t.Fatalf("backend ordering: %q %q", scenarios[0].Backend, scenarios[1].Backend)
	}
}

// backendMatrix sweeps all three backend families over a 10-node
// deployment (the bundled testbed10 trace fixes the node count).
func backendMatrix() Matrix {
	return Matrix{
		Backends:   []string{"logdist", "unitdisk", "unitdisk:45:10", "trace:testbed10"},
		NodeCounts: []int{10},
		LossRates:  []float64{0.0, 0.2},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 3,
		Seed:       9,
	}
}

// TestRunMatrixBackendDeterministicAcrossWorkers extends the worker-count
// determinism bar to the backend axis: the same matrix — including unit-disk
// and trace-replay cells — yields byte-identical ScenarioResults for 1 and N
// workers.
func TestRunMatrixBackendDeterministicAcrossWorkers(t *testing.T) {
	sequential, err := NewRunner(WithWorkers(1)).Run(backendMatrix())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		parallel, err := NewRunner(WithWorkers(workers)).Run(backendMatrix())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sequential, parallel) {
			t.Fatalf("workers=%d diverged from sequential run on the backend axis", workers)
		}
	}
}

// TestRunScenarioUnitDiskIdealIsLossless pins the idealized backend's
// end-to-end behavior: with no injected loss and an ideal disk covering the
// deployment, every node of every round reconstructs the aggregate.
func TestRunScenarioUnitDiskIdealIsLossless(t *testing.T) {
	res, err := RunScenario(Scenario{
		Backend:    "unitdisk",
		Nodes:      10,
		LossRate:   0.0,
		Protocol:   core.S4,
		Iterations: 4,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate != 1 {
		t.Fatalf("ideal unit-disk success rate %v, want exactly 1", res.SuccessRate)
	}
	if res.FailedRounds != 0 {
		t.Fatalf("ideal unit-disk failed rounds %d", res.FailedRounds)
	}
}

// TestRunScenarioTraceNodeMismatch: a trace backend pins the node count; a
// scenario sized differently must fail loudly, not truncate.
func TestRunScenarioTraceNodeMismatch(t *testing.T) {
	_, err := RunScenario(Scenario{
		Backend:    "trace:testbed10",
		Nodes:      15,
		Protocol:   core.S4,
		Iterations: 1,
		Seed:       1,
	})
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("node mismatch: %v", err)
	}
}
