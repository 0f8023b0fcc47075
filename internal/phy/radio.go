package phy

import "math/rand"

// Radio is the pluggable radio backend every protocol layer runs on. Its
// contract is the LinkTable: a flat snapshot of the backend's link model
// whose reception draws are driven by an injected *rand.Rand (so trials
// stay reproducible). A new backend builds its table from a per-link PRR
// matrix with BestPRRTable or UnionPRRTable and supplies the PHY
// parameterization that fixes frame airtimes and radio currents.
//
// Three backends ship with the repository:
//
//   - LogDistance (this package) — the statistical model the paper's
//     evaluation uses (log-distance path loss, frozen shadowing, per-packet
//     fading); NewLogDistance builds it.
//   - UnitDisk (this package) — idealized reception inside a radius, zero
//     outside, with an optional gray zone; deterministic where PRR is 0 or
//     1, which is what exact protocol-invariant tests need.
//   - trace.Channel (internal/trace) — replays a recorded per-link PRR
//     matrix loaded from CSV/JSON (e.g. a testbed link-quality snapshot).
type Radio interface {
	// NumNodes returns the number of nodes in the environment.
	NumNodes() int
	// Params returns the PHY parameterization (airtimes, currents, guard).
	Params() Params
	// LinkTable returns the backend's link snapshot: PRRs, reception draws
	// and connectivity queries. Backends build it lazily once and return
	// the same table thereafter; it is safe for concurrent readers.
	LinkTable() *LinkTable
}

// Factory builds a Radio over node positions. It is the hook that makes the
// backend a first-class scenario axis: protocol configurations carry a
// Factory (nil selecting LogDistanceFactory), and the experiment layer maps
// backend spec strings ("logdist", "unitdisk", "trace:<file>") to factories.
// seed freezes any frozen randomness of the model (e.g. the shadowing
// realization); backends without one ignore it.
type Factory func(params Params, positions []Position, seed int64) (Radio, error)

// LogDistanceFactory is the default Factory: the paper's log-distance +
// shadowing statistical channel.
func LogDistanceFactory(params Params, positions []Position, seed int64) (Radio, error) {
	return NewLogDistance(params, positions, seed)
}

// Build constructs a Radio with the given factory, nil selecting
// LogDistanceFactory. It is the single defaulting site every configuration
// layer (core, hepda) shares.
func Build(factory Factory, params Params, positions []Position, seed int64) (Radio, error) {
	if factory == nil {
		factory = LogDistanceFactory
	}
	return factory(params, positions, seed)
}

// Draw realizes a reception attempt at probability p. Certain outcomes
// (p <= 0 or p >= 1) are decided without consuming randomness — the
// backend-wide contract that keeps ideal (UnitDisk) and replayed
// (trace.Channel) runs deterministic wherever their links are certain.
func Draw(p float64, rng *rand.Rand) bool {
	switch {
	case p >= 1:
		return true
	case p <= 0:
		return false
	default:
		return rng.Float64() < p
	}
}

// IdealParams returns DefaultParams with every stochastic loss knob zeroed
// (fading, CT beating, ambient interference bursts). Combined with the
// UnitDisk backend this yields fully deterministic protocol executions —
// the setting exact property tests run under.
func IdealParams() Params {
	p := DefaultParams()
	p.FadingSigmaDB = 0
	p.CTBeatingLoss = 0
	p.InterferenceBurstProb = 0
	return p
}
