// Package experiment is the harness that regenerates the paper's evaluation:
// Fig. 1 panels (a)–(d) — latency and radio-on time for S3 vs S4 on FlockLab
// and D-Cube across source-node counts — plus the in-text headline claims and
// the NTX/coverage characterization. Each sweep runs both protocols over the
// same testbed and seed so comparisons are paired.
package experiment

import (
	"errors"
	"fmt"
	"strings"

	"iotmpc/internal/core"
	"iotmpc/internal/metrics"
)

// Errors returned by the harness.
var (
	// ErrBadSpec is returned for invalid sweep parameters.
	ErrBadSpec = errors.New("experiment: invalid spec")
)

// SweepSpec describes one testbed sweep (one column of Fig. 1).
type SweepSpec struct {
	// Name is the testbed the sweep runs on (see NamedTestbed) and labels
	// the sweep in tables ("flocklab", "dcube").
	Name string
	// SourceCounts is the x-axis of the figure.
	SourceCounts []int
	// NTXSharing is S4's low NTX (paper: 6 on FlockLab, 5 on D-Cube).
	NTXSharing int
	// DestSlack is S4's extra-destination count.
	DestSlack int
	// Iterations is the Monte-Carlo repetition count per point (paper: 2000).
	Iterations int
	// Seed roots all randomness.
	Seed int64
}

// FlockLabSweep returns the paper's FlockLab configuration
// (Fig. 1(i), panels a and b).
func FlockLabSweep(iterations int, seed int64) SweepSpec {
	return SweepSpec{
		Name:         "flocklab",
		SourceCounts: []int{3, 6, 10, 24},
		NTXSharing:   6,
		DestSlack:    1,
		Iterations:   iterations,
		Seed:         seed,
	}
}

// DCubeSweep returns the paper's D-Cube configuration
// (Fig. 1(ii), panels c and d).
func DCubeSweep(iterations int, seed int64) SweepSpec {
	return SweepSpec{
		Name:         "dcube",
		SourceCounts: []int{5, 7, 12, 45},
		NTXSharing:   5,
		DestSlack:    1,
		Iterations:   iterations,
		Seed:         seed,
	}
}

// Row pairs an S3 cell with its S4 twin: one source count of a sweep, or
// one network size of the scalability study. Sources is the cells'
// SourceCount (0: every node).
type Row struct {
	Sources      int            `json:"sources"`
	S3           ScenarioResult `json:"s3"`
	S4           ScenarioResult `json:"s4"`
	LatencyRatio float64        `json:"latencyRatio"`
	RadioRatio   float64        `json:"radioRatio"`
}

// SweepResult is a completed sweep.
type SweepResult struct {
	Spec SweepSpec `json:"spec"`
	Rows []Row     `json:"rows"`
}

// SpreadSources picks s well-separated node indices from an n-node testbed,
// mirroring how testbed experiments distribute source roles across the
// facility rather than clustering them.
func SpreadSources(n, s int) ([]int, error) {
	if s <= 0 || s > n {
		return nil, fmt.Errorf("%w: %d sources from %d nodes", ErrBadSpec, s, n)
	}
	out := make([]int, s)
	for i := 0; i < s; i++ {
		out[i] = i * n / s
	}
	return out, nil
}

// Scenarios expands the sweep into its Runner cells: for each source count,
// the S3 cell then the S4 cell. Unlike Matrix cells, whose seeds are
// sim.DeriveSeed of the matrix seed, every cell's Seed is the sweep's Seed
// itself, so both protocols at every source count share one channel
// realization — the paired comparison the figure draws.
func (s SweepSpec) Scenarios() ([]Scenario, error) {
	if s.Iterations <= 0 {
		return nil, fmt.Errorf("%w: iterations %d", ErrBadSpec, s.Iterations)
	}
	if len(s.SourceCounts) == 0 {
		return nil, fmt.Errorf("%w: no source counts", ErrBadSpec)
	}
	cells := make([]Scenario, 0, 2*len(s.SourceCounts))
	for _, src := range s.SourceCounts {
		cells = appendProtocolPair(cells, Scenario{
			Testbed:     s.Name,
			SourceCount: src,
			LossRate:    DefaultLossRate,
			NTXSharing:  s.NTXSharing,
			DestSlack:   s.DestSlack,
			Iterations:  s.Iterations,
			Seed:        s.Seed,
		})
	}
	return cells, nil
}

// appendProtocolPair appends sc's S3 cell and then its S4 cell, indexed by
// their positions in cells.
func appendProtocolPair(cells []Scenario, sc Scenario) []Scenario {
	for _, proto := range []core.Protocol{core.S3, core.S4} {
		sc.Index, sc.Protocol = len(cells), proto
		cells = append(cells, sc)
	}
	return cells
}

// runPairs runs cells built by appendProtocolPair on a default Runner and
// folds each (S3, S4) pair into a Row.
func runPairs(cells []Scenario) ([]Row, error) {
	results, err := NewRunner().RunScenarios(cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(results)/2)
	for i := 0; i+1 < len(results); i += 2 {
		row := Row{Sources: results[i].Scenario.SourceCount, S3: results[i], S4: results[i+1]}
		if row.LatencyRatio, err = metrics.Ratio(row.S3.LatencyMS.Mean, row.S4.LatencyMS.Mean); err != nil {
			return nil, err
		}
		if row.RadioRatio, err = metrics.Ratio(row.S3.RadioOnMS.Mean, row.S4.RadioOnMS.Mean); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunSweep executes the sweep on the Runner: for every source count, both
// protocols run Iterations rounds over paired randomness.
func RunSweep(spec SweepSpec) (*SweepResult, error) {
	cells, err := spec.Scenarios()
	if err != nil {
		return nil, err
	}
	rows, err := runPairs(cells)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Spec: spec, Rows: rows}, nil
}

// Metric selects which panel of a sweep to render.
type Metric int

// Panel metrics.
const (
	// Latency renders panels (a)/(c).
	Latency Metric = iota + 1
	// RadioOn renders panels (b)/(d).
	RadioOn
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Latency:
		return "Latency"
	case RadioOn:
		return "Radio-on-time"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Table renders one panel as the text analogue of the paper's bar chart:
// milliseconds (log-scale magnitudes in the paper) per source count.
func (r *SweepResult) Table(m Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (ms, mean over %d iterations)\n",
		r.Spec.Name, m, r.Spec.Iterations)
	fmt.Fprintf(&b, "%-8s %14s %14s %8s %10s\n", "sources", "S3", "S4", "ratio", "S4 success")
	for _, row := range r.Rows {
		var s3v, s4v, ratio float64
		switch m {
		case RadioOn:
			s3v, s4v, ratio = row.S3.RadioOnMS.Mean, row.S4.RadioOnMS.Mean, row.RadioRatio
		default:
			s3v, s4v, ratio = row.S3.LatencyMS.Mean, row.S4.LatencyMS.Mean, row.LatencyRatio
		}
		fmt.Fprintf(&b, "%-8d %14.1f %14.1f %7.2fx %9.1f%%\n",
			row.Sources, s3v, s4v, ratio, row.S4.SuccessRate*100)
	}
	return b.String()
}

// FullNetworkGains extracts the paper's headline numbers: the S3/S4 ratios at
// the largest source count of the sweep.
func (r *SweepResult) FullNetworkGains() (latency, radio float64, err error) {
	if len(r.Rows) == 0 {
		return 0, 0, fmt.Errorf("%w: empty sweep", ErrBadSpec)
	}
	last := r.Rows[len(r.Rows)-1]
	return last.LatencyRatio, last.RadioRatio, nil
}
