package phy

import (
	"errors"
	"math"
	"sync"

	"iotmpc/internal/sim"
)

// Position is a node location in meters.
type Position struct {
	X float64
	Y float64
}

// Distance returns the Euclidean distance to other.
func (p Position) Distance(other Position) float64 {
	dx := p.X - other.X
	dy := p.Y - other.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// ErrNoNodes is returned when a backend is built without nodes.
var ErrNoNodes = errors.New("phy: no nodes")

// LogDistance is the statistical radio backend the paper's evaluation uses:
// pairwise mean RSSI from log-distance path loss plus frozen shadowing, and
// the derived packet reception ratios. Per-packet randomness (fading,
// reception draws) is injected by callers through an explicit *rand.Rand so
// trials are reproducible.
type LogDistance struct {
	params    Params
	positions []Position
	// rssi[i][j] is the mean received power at j when i transmits.
	rssi [][]float64

	tableOnce sync.Once
	table     *LinkTable
}

var _ Radio = (*LogDistance)(nil)

// NewLogDistance builds the log-distance + shadowing environment. seed
// freezes the shadowing realization; two backends built with the same inputs
// are identical.
func NewLogDistance(params Params, positions []Position, seed int64) (*LogDistance, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(positions) == 0 {
		return nil, ErrNoNodes
	}
	n := len(positions)
	pos := make([]Position, n)
	copy(pos, positions)

	rng := sim.NewSeededRNG(seed)
	rssi := make([][]float64, n)
	for i := range rssi {
		rssi[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := pos[i].Distance(pos[j])
			if d < 0.1 {
				d = 0.1 // clamp: co-located testbed nodes still have some separation
			}
			loss := params.RefLossDB + 10*params.PathLossExponent*math.Log10(d)
			shadow := rng.NormFloat64() * params.ShadowingSigmaDB
			p := params.TxPowerDBm - loss - shadow
			// Shadowing is reciprocal: same obstruction both ways.
			rssi[i][j] = p
			rssi[j][i] = p
		}
		rssi[i][i] = math.Inf(-1) // a node never receives itself
	}
	return &LogDistance{params: params, positions: pos, rssi: rssi}, nil
}

// NumNodes returns the number of nodes in the environment.
func (c *LogDistance) NumNodes() int { return len(c.positions) }

// Params returns the PHY parameterization of the channel.
func (c *LogDistance) Params() Params { return c.params }

// LinkTable returns the flat snapshot of the log-distance link model (mean
// RSSI plus the derived PRR per directed link). Built lazily once; floods
// sharing the channel across goroutines all see the same table.
func (c *LogDistance) LinkTable() *LinkTable {
	c.tableOnce.Do(func() { c.table = newLogDistanceTable(c.params, c.rssi) })
	return c.table
}
