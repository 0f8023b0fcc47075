package experiment

import (
	"errors"
	"strings"
	"testing"
)

func TestScalabilityGainGrowsWithNetworkSize(t *testing.T) {
	rows, err := ScalabilitySweep([]int{15, 40}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, large := rows[0], rows[1]
	if small.S3.Scenario.Nodes != 15 || large.S4.Scenario.Nodes != 40 {
		t.Errorf("sizes = %d, %d, want 15, 40", small.S3.Scenario.Nodes, large.S4.Scenario.Nodes)
	}
	if large.LatencyRatio <= small.LatencyRatio {
		t.Errorf("S4 advantage not growing: n=15 %.2fx vs n=40 %.2fx",
			small.LatencyRatio, large.LatencyRatio)
	}
	for _, r := range rows {
		if r.LatencyRatio <= 1 || r.RadioRatio <= 1 {
			t.Errorf("n=%d: S4 not winning (%.2fx, %.2fx)", r.S3.Scenario.Nodes, r.LatencyRatio, r.RadioRatio)
		}
	}
}

func TestScalabilitySweepErrors(t *testing.T) {
	if _, err := ScalabilitySweep(nil, 1, 1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("no sizes: %v, want ErrBadSpec", err)
	}
	if _, err := ScalabilitySweep([]int{20}, 0, 1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero iterations: %v, want ErrBadSpec", err)
	}
	if _, err := ScalabilitySweep([]int{3}, 1, 1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("tiny size: %v, want ErrBadSpec", err)
	}
}

func TestScalabilityTable(t *testing.T) {
	out := ScalabilityTable([]Row{{S3: ScenarioResult{Scenario: Scenario{Nodes: 20}}, LatencyRatio: 3}})
	if !strings.Contains(out, "20") || !strings.Contains(out, "Scalability") {
		t.Errorf("table malformed:\n%s", out)
	}
}
