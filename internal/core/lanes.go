package core

import (
	"fmt"
	"math/rand"

	"iotmpc/internal/minicast"
	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
)

// RunRoundLanes executes count consecutive trials [baseTrial, baseTrial+count)
// of one bootstrap bit-sliced: the commitment and sharing chains run ONCE for
// the whole batch with per-(node,item) possession held as uint64 lane masks
// (minicast.RunLanes), while the per-trial compute prologue and the round
// epilogue — whose work (sealed payloads, holder sets, reconstruction items)
// genuinely differs per trial — run scalar per lane.
//
// Results are bit-identical to calling RunRound(boot, baseTrial+l) for each
// lane: every lane owns the same derived RNG streams the scalar path would
// use (trial*4+1 and trial*4+2 under the channel seed, reseeded into pooled
// generators), and the lane kernels touch lane l's stream exactly when lane
// l's scalar execution would. Any partition of a trial range into lane
// groups therefore produces the same per-trial results, and count==1 routes
// straight to RunRound.
func RunRoundLanes(boot *Bootstrap, baseTrial uint64, count int) ([]*RoundResult, error) {
	if boot == nil || boot.Channel == nil {
		return nil, fmt.Errorf("%w: nil bootstrap", ErrBadConfig)
	}
	if count < 1 || count > phy.MaxLanes {
		return nil, fmt.Errorf("%w: %d lanes (want 1..%d)", ErrBadConfig, count, phy.MaxLanes)
	}
	if count == 1 {
		res, err := RunRound(boot, baseTrial)
		if err != nil {
			return nil, err
		}
		return []*RoundResult{res}, nil
	}
	cfg := boot.cfg
	ch := boot.Channel

	// chainArena backs the shared lane chains: their possession masks must
	// stay readable while every lane's epilogue folds. laneArena backs one
	// lane's reconstruction chain at a time and resets between lanes.
	chainArena := roundArenas.Get().(*sim.Arena)
	laneArena := roundArenas.Get().(*sim.Arena)
	execs := make([]roundExec, count)
	defer func() {
		chainArena.Reset()
		roundArenas.Put(chainArena)
		laneArena.Reset()
		roundArenas.Put(laneArena)
		for _, e := range execs {
			if e.prep != nil {
				putPrep(e.prep)
			}
		}
	}()

	radioRNGs := make([]*rand.Rand, count)
	ledgers := make([]*sim.RadioLedger, count)
	secretRNG := rngs.Get().(*rand.Rand)
	defer rngs.Put(secretRNG)
	for l := range execs {
		prep := preps.Get().(*sharePrep)
		execs[l] = roundExec{
			boot:  boot,
			cfg:   cfg,
			trial: baseTrial + uint64(l),
			prep:  prep,
		}
		if err := prep.prepare(boot, cfg, execs[l].trial, secretRNG, nil); err != nil {
			return nil, err
		}
		radioRNGs[l], ledgers[l] = prep.radioRNG, &prep.ledger
		execs[l].radioRNG, execs[l].ledger = radioRNGs[l], ledgers[l]
	}
	// The chain layouts and the NTX depend only on the bootstrap, never on
	// the trial, so lane 0's prep describes every lane's chains.
	prep0 := execs[0].prep

	if cfg.Verifiable {
		commitLane, err := minicast.RunLanes(minicast.Config{
			Channel:      ch,
			Initiator:    cfg.Initiator,
			NTX:          prep0.ntx,
			Items:        boot.commitItems,
			PayloadBytes: commitPayloadBytes,
			Failed:       cfg.Failed,
		}, count, radioRNGs, ledgers, chainArena)
		if err != nil {
			return nil, fmt.Errorf("commitment phase: %w", err)
		}
		for l := range execs {
			bit := uint64(1) << l
			execs[l].commitDur = commitLane.Duration
			execs[l].haveCommit = func(dst, idx int) bool { return commitLane.Have(dst, idx)&bit != 0 }
		}
	}

	shareLane, err := minicast.RunLanes(minicast.Config{
		Channel:      ch,
		Initiator:    cfg.Initiator,
		NTX:          prep0.ntx,
		Items:        boot.shareItems,
		PayloadBytes: sharePayloadBytes(prep0.vecLen),
		Failed:       cfg.Failed,
	}, count, radioRNGs, ledgers, chainArena)
	if err != nil {
		return nil, fmt.Errorf("sharing phase: %w", err)
	}

	out := make([]*RoundResult, count)
	for l := range execs {
		e := &execs[l]
		bit := uint64(1) << l
		e.shareDur = shareLane.Duration
		e.haveShare = func(dst, idx int) bool { return shareLane.Have(dst, idx)&bit != 0 }
		res, err := e.finish(laneArena)
		laneArena.Reset()
		if err != nil {
			return nil, fmt.Errorf("lane %d (trial %d): %w", l, e.trial, err)
		}
		out[l] = res
	}
	return out, nil
}
