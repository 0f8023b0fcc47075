package phy

import (
	"fmt"
	"math"
	"sync"
)

// UnitDisk is the idealized radio backend: a transmission is received with
// probability 1 inside the communication radius and 0 outside, with an
// optional "gray zone" ring in which the reception probability ramps
// linearly from 1 down to 0. With a zero-width gray zone every reception
// draw is deterministic and consumes no randomness, which is what exact
// protocol-invariant tests (flooding coverage, component isolation) assert
// against; the gray zone restores a controlled amount of stochastic loss
// when a test wants "almost ideal".
//
// UnitDisk intentionally has no fading, no constructive-interference gain
// and no beating loss: concurrent same-packet transmissions succeed iff the
// best incoming link would. Note that the ambient-interference burst model
// (Params.InterferenceBurstProb) is drawn by the protocol layers, not the
// backend — pass IdealParams (or zero the field) to make UnitDisk
// executions fully deterministic.
type UnitDisk struct {
	params    Params
	positions []Position
	radius    float64
	gray      float64

	tableOnce sync.Once
	table     *LinkTable
}

var _ Radio = (*UnitDisk)(nil)

// NewUnitDisk builds the idealized environment. radius is the guaranteed
// communication range in meters; grayWidth (>= 0) is the width of the
// probabilistic ring beyond it.
func NewUnitDisk(params Params, positions []Position, radius, grayWidth float64) (*UnitDisk, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(positions) == 0 {
		return nil, ErrNoNodes
	}
	if radius <= 0 || math.IsNaN(radius) {
		return nil, fmt.Errorf("%w: unit-disk radius %f", ErrBadParams, radius)
	}
	if grayWidth < 0 || math.IsNaN(grayWidth) {
		return nil, fmt.Errorf("%w: gray-zone width %f", ErrBadParams, grayWidth)
	}
	pos := make([]Position, len(positions))
	copy(pos, positions)
	return &UnitDisk{params: params, positions: pos, radius: radius, gray: grayWidth}, nil
}

// UnitDiskRadius derives the natural disk radius for a parameterization: the
// distance at which the log-distance model's mean RSSI crosses the 50%-PRR
// midpoint. It makes unit-disk and log-distance runs of the same deployment
// comparable: links the statistical model rates "good" are inside the disk.
func UnitDiskRadius(params Params) float64 {
	return math.Pow(10, (params.TxPowerDBm-params.RefLossDB-params.PRRMidpointDBm)/
		(10*params.PathLossExponent))
}

// UnitDiskFactory returns a Factory building UnitDisk backends. radius <= 0
// selects UnitDiskRadius(params); grayWidth < 0 is rejected at build time.
// The seed is ignored — the model has no frozen randomness.
func UnitDiskFactory(radius, grayWidth float64) Factory {
	return func(params Params, positions []Position, _ int64) (Radio, error) {
		r := radius
		if r <= 0 {
			r = UnitDiskRadius(params)
		}
		return NewUnitDisk(params, positions, r, grayWidth)
	}
}

// NumNodes returns the number of nodes in the environment.
func (u *UnitDisk) NumNodes() int { return len(u.positions) }

// Params returns the PHY parameterization of the backend.
func (u *UnitDisk) Params() Params { return u.params }

// Radius returns the guaranteed communication range in meters.
func (u *UnitDisk) Radius() float64 { return u.radius }

// GrayWidth returns the width of the probabilistic ring beyond the radius.
func (u *UnitDisk) GrayWidth() float64 { return u.gray }

// prr is 1 inside the radius, 0 beyond the gray zone, and the linear ramp
// in between. A node never receives itself.
func (u *UnitDisk) prr(tx, rx int) float64 {
	if tx == rx {
		return 0
	}
	d := u.positions[tx].Distance(u.positions[rx])
	switch {
	case d <= u.radius:
		return 1
	case u.gray > 0 && d < u.radius+u.gray:
		return (u.radius + u.gray - d) / u.gray
	default:
		return 0
	}
}

// LinkTable returns the flat snapshot of the disk geometry: every pairwise
// PRR evaluated once, so flood loops look links up instead of recomputing
// Euclidean distances per draw. Built lazily once.
func (u *UnitDisk) LinkTable() *LinkTable {
	u.tableOnce.Do(func() {
		n := len(u.positions)
		prr := make([][]float64, n)
		for tx := 0; tx < n; tx++ {
			prr[tx] = make([]float64, n)
			for rx := 0; rx < n; rx++ {
				prr[tx][rx] = u.prr(tx, rx)
			}
		}
		u.table = BestPRRTable(prr)
	})
	return u.table
}
