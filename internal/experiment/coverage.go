package experiment

import (
	"fmt"
	"strings"

	"iotmpc/internal/minicast"
	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

// CoveragePoint is one sample of the MiniCast coverage-vs-NTX curve — the
// characterization behind the paper's Section III observation that coverage
// grows quickly at low NTX and saturates slowly toward full coverage.
type CoveragePoint struct {
	NTX          int     `json:"ntx"`
	MeanCoverage float64 `json:"meanCoverage"`
	FullCoverage float64 `json:"fullCoverageRate"` // fraction of rounds with 100% coverage
}

// CoverageCurve measures all-to-all MiniCast coverage on a testbed for each
// NTX value.
func CoverageCurve(testbed topology.Topology, ntxs []int, iterations int, seed int64) ([]CoveragePoint, error) {
	if iterations <= 0 || len(ntxs) == 0 {
		return nil, fmt.Errorf("%w: iterations %d, %d NTX values", ErrBadSpec, iterations, len(ntxs))
	}
	ch, err := testbed.Channel(phy.DefaultParams(), seed)
	if err != nil {
		return nil, err
	}
	n := ch.NumNodes()
	items := make([]minicast.Item, n)
	for i := range items {
		items[i] = minicast.Item{Owner: i, Dst: -1}
	}
	points := make([]CoveragePoint, 0, len(ntxs))
	// One generator, reseeded to each (NTX, iteration) stream.
	rng := sim.NewRNG(seed, 0)
	for _, ntx := range ntxs {
		if ntx <= 0 {
			return nil, fmt.Errorf("%w: NTX %d", ErrBadSpec, ntx)
		}
		total, full := 0.0, 0
		for it := 0; it < iterations; it++ {
			sim.ReseedRNG(rng, seed, uint64(0xC0F0+ntx*10000+it))
			res, err := minicast.RunArena(minicast.Config{
				Channel:      ch,
				Initiator:    0,
				NTX:          ntx,
				Items:        items,
				PayloadBytes: 20,
			}, rng, nil, nil, nil)
			if err != nil {
				return nil, err
			}
			cov := res.MeanCoverage()
			total += cov
			if cov == 1 {
				full++
			}
		}
		points = append(points, CoveragePoint{
			NTX:          ntx,
			MeanCoverage: total / float64(iterations),
			FullCoverage: float64(full) / float64(iterations),
		})
	}
	return points, nil
}

// CoverageTable renders the curve as text.
func CoverageTable(name string, points []CoveragePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — MiniCast all-to-all coverage vs NTX\n", name)
	fmt.Fprintf(&b, "%-6s %14s %18s\n", "NTX", "mean coverage", "full-coverage rate")
	for _, p := range points {
		fmt.Fprintf(&b, "%-6d %13.1f%% %17.1f%%\n", p.NTX, p.MeanCoverage*100, p.FullCoverage*100)
	}
	return b.String()
}
