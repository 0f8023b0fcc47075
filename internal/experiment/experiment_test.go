package experiment

import (
	"errors"
	"strings"
	"testing"

	"iotmpc/internal/core"
	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
)

func TestSpreadSources(t *testing.T) {
	got, err := SpreadSources(26, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 8, 17}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SpreadSources(26,3) = %v, want %v", got, want)
			break
		}
	}
	full, err := SpreadSources(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range full {
		if v != i {
			t.Errorf("full spread[%d] = %d", i, v)
		}
	}
	if _, err := SpreadSources(5, 6); !errors.Is(err, ErrBadSpec) {
		t.Errorf("oversubscribed: %v, want ErrBadSpec", err)
	}
	if _, err := SpreadSources(5, 0); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero: %v, want ErrBadSpec", err)
	}
}

func TestRunSweepSmallFlockLab(t *testing.T) {
	spec := FlockLabSweep(2, 1)
	spec.SourceCounts = []int{3, 10} // trimmed for test speed
	res, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.LatencyRatio <= 1 {
			t.Errorf("s=%d: S4 not faster (ratio %.2f)", row.Sources, row.LatencyRatio)
		}
		if row.RadioRatio <= 1 {
			t.Errorf("s=%d: S4 not cheaper (ratio %.2f)", row.Sources, row.RadioRatio)
		}
		if row.S3.SuccessRate < 0.99 {
			t.Errorf("s=%d: S3 success %.3f", row.Sources, row.S3.SuccessRate)
		}
		if row.S4.SuccessRate < 0.95 {
			t.Errorf("s=%d: S4 success %.3f", row.Sources, row.S4.SuccessRate)
		}
	}
	// Absolute cost grows with source count for both protocols (the figure's
	// visual signature), while the S3/S4 gap stays large throughout.
	if res.Rows[1].S3.LatencyMS.Mean <= res.Rows[0].S3.LatencyMS.Mean {
		t.Error("S3 latency not growing with source count")
	}
	if res.Rows[1].S4.LatencyMS.Mean <= res.Rows[0].S4.LatencyMS.Mean {
		t.Error("S4 latency not growing with source count")
	}
	for _, row := range res.Rows {
		if row.LatencyRatio < 2 {
			t.Errorf("s=%d: latency ratio %.2f below 2", row.Sources, row.LatencyRatio)
		}
	}
}

func TestSweepSpecErrors(t *testing.T) {
	spec := FlockLabSweep(0, 1)
	if _, err := RunSweep(spec); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero iterations: %v, want ErrBadSpec", err)
	}
	spec = FlockLabSweep(1, 1)
	spec.SourceCounts = nil
	if _, err := RunSweep(spec); !errors.Is(err, ErrBadSpec) {
		t.Errorf("no counts: %v, want ErrBadSpec", err)
	}
}

func TestTableAndCSVRender(t *testing.T) {
	spec := FlockLabSweep(1, 1)
	spec.SourceCounts = []int{3}
	res, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	latTable := res.Table(Latency)
	if !strings.Contains(latTable, "flocklab") || !strings.Contains(latTable, "Latency") {
		t.Errorf("latency table malformed:\n%s", latTable)
	}
	radioTable := res.Table(RadioOn)
	if !strings.Contains(radioTable, "Radio-on-time") {
		t.Errorf("radio table malformed:\n%s", radioTable)
	}
	// A sweep's CSV is its cells through the matrix CSV sink.
	var csv strings.Builder
	sink := &CSVSink{W: &csv}
	if err := sink.OnStart(Plan{}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []ScenarioResult{res.Rows[0].S3, res.Rows[0].S4} {
		if err := sink.OnResult(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.OnFinish(RunSummary{}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), strings.Join(matrixCSVHeader, ",")) {
		t.Errorf("csv header malformed:\n%s", csv.String())
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[1], ",flocklab,") || !strings.Contains(lines[2], ",S4,") {
		t.Errorf("csv = %q, want header + flocklab S3 + S4 rows", lines)
	}
}

func TestSweepSpecScenarios(t *testing.T) {
	// A panel cell runs the PHY a zero core.Config.PHY normalizes to only
	// because its loss rate equals the default burst probability; the
	// panel golden rests on that.
	if DefaultLossRate != phy.DefaultParams().InterferenceBurstProb {
		t.Fatalf("DefaultLossRate %v != default PHY burst probability %v",
			DefaultLossRate, phy.DefaultParams().InterferenceBurstProb)
	}
	for _, spec := range []SweepSpec{FlockLabSweep(7, 3), DCubeSweep(2, -9)} {
		cells, err := spec.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 2*len(spec.SourceCounts) {
			t.Fatalf("%s: %d cells, want %d", spec.Name, len(cells), 2*len(spec.SourceCounts))
		}
		for i, sc := range cells {
			want := Scenario{
				Index:       i,
				Testbed:     spec.Name,
				SourceCount: spec.SourceCounts[i/2],
				LossRate:    DefaultLossRate,
				Protocol:    []core.Protocol{core.S3, core.S4}[i%2],
				NTXSharing:  spec.NTXSharing,
				DestSlack:   spec.DestSlack,
				Iterations:  spec.Iterations,
				Seed:        spec.Seed, // pinned, not derived per cell
			}
			if sc != want {
				t.Errorf("%s cell %d = %+v, want %+v", spec.Name, i, sc, want)
			}
		}
	}
}

func TestFullNetworkGains(t *testing.T) {
	spec := FlockLabSweep(1, 1)
	spec.SourceCounts = []int{3}
	res, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	lat, radio, err := res.FullNetworkGains()
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 1 || radio <= 1 {
		t.Errorf("gains = %.2f / %.2f, want > 1", lat, radio)
	}
	empty := &SweepResult{}
	if _, _, err := empty.FullNetworkGains(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("empty gains: %v, want ErrBadSpec", err)
	}
}

func TestCoverageCurveShape(t *testing.T) {
	pts, err := CoverageCurve(topology.FlockLab(), []int{1, 4, 8}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if !(pts[0].MeanCoverage < pts[1].MeanCoverage && pts[1].MeanCoverage <= pts[2].MeanCoverage) {
		t.Errorf("coverage not increasing: %+v", pts)
	}
	table := CoverageTable("flocklab", pts)
	if !strings.Contains(table, "NTX") {
		t.Errorf("coverage table malformed:\n%s", table)
	}
}

func TestCoverageCurveErrors(t *testing.T) {
	if _, err := CoverageCurve(topology.FlockLab(), nil, 1, 1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("no ntxs: %v", err)
	}
	if _, err := CoverageCurve(topology.FlockLab(), []int{1}, 0, 1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero iters: %v", err)
	}
	if _, err := CoverageCurve(topology.FlockLab(), []int{0}, 1, 1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad ntx: %v", err)
	}
}

func TestDCubeSweepSpec(t *testing.T) {
	spec := DCubeSweep(2000, 42)
	tb, err := NamedTestbed(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumNodes() != 45 {
		t.Errorf("nodes = %d", tb.NumNodes())
	}
	if spec.NTXSharing != 5 {
		t.Errorf("NTX = %d, want 5 (paper)", spec.NTXSharing)
	}
	if spec.SourceCounts[len(spec.SourceCounts)-1] != 45 {
		t.Error("sweep must end at the full network")
	}
}

func TestMetricString(t *testing.T) {
	if Latency.String() != "Latency" || RadioOn.String() != "Radio-on-time" {
		t.Error("metric names wrong")
	}
	if !strings.Contains(Metric(9).String(), "Metric(9)") {
		t.Error("unknown metric rendering")
	}
}
