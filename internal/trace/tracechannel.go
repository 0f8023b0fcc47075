package trace

import (
	"fmt"
	"sync"

	"iotmpc/internal/phy"
)

// Channel is the trace-driven radio backend: it replays a recorded per-link
// PRR matrix (LinkTrace) instead of deriving reception from a propagation
// model. Reception draws are Bernoulli in the recorded per-link ratios;
// concurrent same-packet transmissions succeed with the union probability of
// the individual links (independent receptions — the trace records no
// constructive-interference structure). As with UnitDisk, certain
// outcomes (PRR 0 or 1) consume no randomness.
type Channel struct {
	params phy.Params
	tr     *LinkTrace

	tableOnce sync.Once
	table     *phy.LinkTable
}

var _ phy.Radio = (*Channel)(nil)

// NewChannel wraps a link trace as a radio backend. params supplies the
// timing/energy figures (airtimes, slot guard, radio currents) the trace
// does not record.
func NewChannel(params phy.Params, tr *LinkTrace) (*Channel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || tr.Nodes < 2 || len(tr.PRR) != tr.Nodes {
		return nil, fmt.Errorf("%w: nil or inconsistent trace", ErrBadTrace)
	}
	// Hand-constructed traces (the parsers always build square matrices)
	// must also be square, or reception queries would panic mid-simulation.
	for i, row := range tr.PRR {
		if len(row) != tr.Nodes {
			return nil, fmt.Errorf("%w: PRR row %d has %d entries for %d nodes",
				ErrBadTrace, i, len(row), tr.Nodes)
		}
	}
	return &Channel{params: params, tr: tr}, nil
}

// Factory returns a phy.Factory replaying the trace. The positions only fix
// the expected node count — a trace carries no geometry — and a mismatch
// between deployment size and trace size is an error, not a truncation.
// The seed is ignored: the trace IS the frozen randomness.
func Factory(tr *LinkTrace) phy.Factory {
	return func(params phy.Params, positions []phy.Position, _ int64) (phy.Radio, error) {
		if tr != nil && len(positions) != tr.Nodes {
			return nil, fmt.Errorf("%w: trace %q has %d nodes, deployment has %d",
				ErrBadTrace, tr.Name, tr.Nodes, len(positions))
		}
		return NewChannel(params, tr)
	}
}

// Trace returns the replayed link trace.
func (c *Channel) Trace() *LinkTrace { return c.tr }

// NumNodes returns the number of nodes in the trace.
func (c *Channel) NumNodes() int { return c.tr.Nodes }

// Params returns the PHY parameterization of the backend.
func (c *Channel) Params() phy.Params { return c.params }

// LinkTable returns the flat snapshot of the recorded PRR matrix, whose
// concurrent receptions draw on the union probability of independent links
// — exactly this backend's semantics. Built lazily once.
func (c *Channel) LinkTable() *phy.LinkTable {
	c.tableOnce.Do(func() { c.table = phy.UnionPRRTable(c.tr.PRR) })
	return c.table
}
