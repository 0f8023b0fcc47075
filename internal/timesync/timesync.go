// Package timesync models Glossy-based network time synchronization — the
// mechanism that makes slot-level TDMA (and constructive interference
// itself) possible on testbeds like FlockLab and D-Cube.
//
// Every CT round starts with a Glossy flood carrying the initiator's clock;
// a receiver learns the network time to within a few microseconds because it
// knows exactly which relay slot it heard (per-hop timestamp jitter is
// sub-microsecond in Glossy). Between floods, each node's estimate degrades
// with the drift of its crystal oscillator (tens of ppm); after two or more
// floods a node can estimate its own drift and compensate, leaving only the
// estimation residual.
//
// The package simulates this loop and reports the distribution of sync error
// across nodes over time. Its role in the repository is to *justify* the
// slot-synchronous abstraction used by internal/minicast: with the default
// parameters, worst-case sync error stays well below the 100 µs TDMA guard
// interval, so the chain simulation may treat slots as perfectly aligned.
package timesync

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"iotmpc/internal/glossy"
	"iotmpc/internal/phy"
)

// Errors returned by the package.
var (
	// ErrBadConfig is returned for invalid sync configuration.
	ErrBadConfig = errors.New("timesync: invalid configuration")
)

// Config parameterizes a synchronization simulation.
type Config struct {
	// Channel is the radio backend (any phy.Radio implementation).
	Channel phy.Radio
	// Initiator is the clock reference node.
	Initiator int
	// NTX is the Glossy retransmission budget of sync floods.
	NTX int
	// ResyncInterval is the period between sync floods.
	ResyncInterval time.Duration
	// Rounds is the number of resync periods to simulate.
	Rounds int
	// DriftPPM holds each node's crystal drift in parts per million
	// (positive: the local clock runs fast). Nil samples ±MaxDriftPPM
	// uniformly.
	DriftPPM []float64
	// MaxDriftPPM bounds sampled drift when DriftPPM is nil (default 20,
	// a standard ±20 ppm crystal).
	MaxDriftPPM float64
	// HopJitter is the per-hop timestamp error contributed by one relay
	// (default 500 ns, Glossy-class).
	HopJitter time.Duration
	// DriftCompensation enables two-point drift estimation after the second
	// successful sync (what Glossy-based systems such as LWB/Crystal do).
	DriftCompensation bool
}

func (c Config) validate() error {
	switch {
	case c.Channel == nil:
		return fmt.Errorf("%w: nil channel", ErrBadConfig)
	case c.Initiator < 0 || c.Initiator >= c.Channel.NumNodes():
		return fmt.Errorf("%w: initiator %d", ErrBadConfig, c.Initiator)
	case c.NTX <= 0:
		return fmt.Errorf("%w: NTX %d", ErrBadConfig, c.NTX)
	case c.ResyncInterval <= 0:
		return fmt.Errorf("%w: resync interval %v", ErrBadConfig, c.ResyncInterval)
	case c.Rounds <= 0:
		return fmt.Errorf("%w: rounds %d", ErrBadConfig, c.Rounds)
	case c.DriftPPM != nil && len(c.DriftPPM) != c.Channel.NumNodes():
		return fmt.Errorf("%w: %d drift entries for %d nodes",
			ErrBadConfig, len(c.DriftPPM), c.Channel.NumNodes())
	}
	return nil
}

// nodeState tracks one node's synchronization estimate.
type nodeState struct {
	driftPPM float64 // true crystal drift

	synced        bool
	syncCount     int
	lastSyncAt    time.Duration // true time of last successful sync
	residual      time.Duration // estimate error at the moment of last sync
	driftEstimate float64       // compensated drift (ppm), if estimating
	lastOffsetErr time.Duration // bookkeeping for two-point drift estimation
}

// errorAt returns the node's sync error at true time t.
func (s *nodeState) errorAt(t time.Duration) time.Duration {
	if !s.synced {
		return time.Duration(math.MaxInt64) // never synchronized
	}
	elapsed := t - s.lastSyncAt
	effectiveDrift := s.driftPPM - s.driftEstimate
	driftErr := time.Duration(float64(elapsed) * effectiveDrift / 1e6)
	return s.residual + driftErr
}

// Sample is the network-wide sync error immediately before one resync flood
// (the worst moment of the period).
type Sample struct {
	// Round is the resync period index (1-based).
	Round int
	// MaxAbsError and MeanAbsError summarize |error| over synced nodes.
	MaxAbsError  time.Duration
	MeanAbsError time.Duration
	// Unsynced counts nodes that have never heard a sync flood.
	Unsynced int
}

// Report is a full simulation outcome.
type Report struct {
	// Samples holds one entry per resync period.
	Samples []Sample
	// GuardInterval echoes the PHY's TDMA guard for convenience.
	GuardInterval time.Duration
}

// WorstError returns the largest per-period maximum across the simulation.
func (r *Report) WorstError() time.Duration {
	var worst time.Duration
	for _, s := range r.Samples {
		if s.MaxAbsError > worst {
			worst = s.MaxAbsError
		}
	}
	return worst
}

// WithinGuard reports whether every sampled error stayed below the guard
// interval — the condition under which the slot-synchronous TDMA abstraction
// is sound.
func (r *Report) WithinGuard() bool {
	return r.WorstError() < r.GuardInterval
}

// Simulate runs Rounds resync periods and samples the error right before
// each flood.
func Simulate(cfg Config, rng *rand.Rand) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Channel.NumNodes()
	maxDrift := cfg.MaxDriftPPM
	if maxDrift == 0 {
		maxDrift = 20
	}
	hopJitter := cfg.HopJitter
	if hopJitter == 0 {
		hopJitter = 500 * time.Nanosecond
	}

	states := make([]nodeState, n)
	for i := range states {
		if cfg.DriftPPM != nil {
			states[i].driftPPM = cfg.DriftPPM[i]
		} else {
			states[i].driftPPM = (rng.Float64()*2 - 1) * maxDrift
		}
	}
	// The initiator IS the reference.
	states[cfg.Initiator].synced = true
	states[cfg.Initiator].driftPPM = 0

	report := &Report{GuardInterval: cfg.Channel.Params().SlotGuard}
	now := time.Duration(0)
	for round := 1; round <= cfg.Rounds; round++ {
		// Sync flood at the start of the period.
		flood, err := glossy.RunArena(glossy.Config{
			Channel:      cfg.Channel,
			Initiator:    cfg.Initiator,
			NTX:          cfg.NTX,
			PayloadBytes: 12, // timestamp + metadata
		}, rng, nil, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		for i := range states {
			if i == cfg.Initiator || !flood.Received[i] {
				continue
			}
			s := &states[i]
			// Residual after a sync: per-hop jitter accumulated over the
			// relay distance (slot index approximates 2×hops in Glossy's
			// alternating schedule).
			hops := flood.FirstRxSlot[i]/2 + 1
			res := time.Duration(rng.NormFloat64() * float64(hopJitter) * math.Sqrt(float64(hops)))

			if cfg.DriftCompensation && s.syncCount >= 1 {
				// Two-point drift estimate from the error accumulated since
				// the previous sync; the estimate inherits the jitter of
				// both endpoints.
				elapsed := now - s.lastSyncAt
				if elapsed > 0 {
					accumulated := s.errorAt(now) - s.lastOffsetErr
					s.driftEstimate += float64(accumulated) / float64(elapsed) * 1e6
				}
			}
			s.residual = res
			s.lastOffsetErr = res
			s.lastSyncAt = now
			s.synced = true
			s.syncCount++
		}

		// Sample right before the next flood: the worst point of the period.
		now += cfg.ResyncInterval
		sample := Sample{Round: round}
		var sum time.Duration
		synced := 0
		for i := range states {
			if i == cfg.Initiator {
				continue
			}
			if !states[i].synced {
				sample.Unsynced++
				continue
			}
			e := states[i].errorAt(now)
			if e < 0 {
				e = -e
			}
			if e > sample.MaxAbsError {
				sample.MaxAbsError = e
			}
			sum += e
			synced++
		}
		if synced > 0 {
			sample.MeanAbsError = sum / time.Duration(synced)
		}
		report.Samples = append(report.Samples, sample)
	}
	return report, nil
}
