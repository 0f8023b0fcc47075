// Package topology provides node layouts for the simulated testbeds the
// paper evaluates on (FlockLab with 26 nodes, D-Cube with 45 nodes) plus
// generic generators (line, grid, random geometric) used by tests and
// ablations. A Topology is pure geometry; radio semantics come from a
// phy.Radio backend built on top of it.
package topology

import (
	"errors"
	"fmt"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
)

// Errors returned by the package.
var (
	// ErrBadSize is returned for non-positive node counts or dimensions.
	ErrBadSize = errors.New("topology: invalid size")
)

// Topology is a named set of node positions. The node at index 0 is the
// conventional initiator/sink of CT floods (FlockLab and D-Cube experiments
// likewise fix an initiator).
type Topology struct {
	// Name identifies the layout in reports and benchmarks.
	Name string
	// Positions holds one entry per node, in meters.
	Positions []phy.Position
}

// NumNodes returns the node count.
func (t Topology) NumNodes() int { return len(t.Positions) }

// Channel builds the log-distance radio environment for the layout.
func (t Topology) Channel(params phy.Params, seed int64) (*phy.LogDistance, error) {
	ch, err := phy.NewLogDistance(params, t.Positions, seed)
	if err != nil {
		return nil, fmt.Errorf("topology %q: %w", t.Name, err)
	}
	return ch, nil
}

// Line places n nodes on a line with the given spacing; the classic
// worst-case multi-hop chain.
func Line(n int, spacing float64) (Topology, error) {
	if n <= 0 || spacing <= 0 {
		return Topology{}, fmt.Errorf("%w: n=%d spacing=%f", ErrBadSize, n, spacing)
	}
	pos := make([]phy.Position, n)
	for i := range pos {
		pos[i] = phy.Position{X: float64(i) * spacing}
	}
	return Topology{Name: fmt.Sprintf("line-%d", n), Positions: pos}, nil
}

// Grid places nodes on a rows×cols lattice.
func Grid(rows, cols int, spacing float64) (Topology, error) {
	if rows <= 0 || cols <= 0 || spacing <= 0 {
		return Topology{}, fmt.Errorf("%w: %dx%d spacing=%f", ErrBadSize, rows, cols, spacing)
	}
	pos := make([]phy.Position, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pos = append(pos, phy.Position{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return Topology{Name: fmt.Sprintf("grid-%dx%d", rows, cols), Positions: pos}, nil
}

// RandomGeometric scatters n nodes uniformly over a w×h rectangle using a
// seeded RNG; used for property tests over many layouts.
func RandomGeometric(n int, w, h float64, seed int64) (Topology, error) {
	if n <= 0 || w <= 0 || h <= 0 {
		return Topology{}, fmt.Errorf("%w: n=%d area=%fx%f", ErrBadSize, n, w, h)
	}
	rng := sim.NewSeededRNG(seed)
	pos := make([]phy.Position, n)
	for i := range pos {
		pos[i] = phy.Position{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	return Topology{Name: fmt.Sprintf("rgg-%d", n), Positions: pos}, nil
}

// Subset restricts a topology to the first n nodes. The experiments sweep
// the number of participating nodes this way, mirroring how the paper varies
// the number of source nodes within a fixed testbed.
func (t Topology) Subset(n int) (Topology, error) {
	if n <= 0 || n > len(t.Positions) {
		return Topology{}, fmt.Errorf("%w: subset %d of %d", ErrBadSize, n, len(t.Positions))
	}
	pos := make([]phy.Position, n)
	copy(pos, t.Positions[:n])
	return Topology{Name: fmt.Sprintf("%s[:%d]", t.Name, n), Positions: pos}, nil
}
