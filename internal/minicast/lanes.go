package minicast

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
)

// LaneResult is the bit-sliced form of Result: possession is a lane mask
// per (node, item) instead of one bool matrix per trial. The schedule
// fields (Waves, Levels, ChainLen, durations) are lane-independent — the
// TDMA schedule is fixed by the topology, never by reception randomness.
type LaneResult struct {
	// HaveMask[node*ChainLen+item] is the lane mask in which the node
	// holds the item at round end.
	HaveMask []uint64
	// Waves, Levels and ChainLen describe the executed schedule.
	Waves    int
	Levels   int
	ChainLen int
	// SlotLen is the per-sub-slot duration, PhaseLen = ChainLen × SlotLen,
	// Duration = Waves × Levels × PhaseLen.
	SlotLen  time.Duration
	PhaseLen time.Duration
	Duration time.Duration
}

// Have returns the lane mask in which node holds item.
func (r *LaneResult) Have(node, item int) uint64 {
	return r.HaveMask[node*r.ChainLen+item]
}

// RunLanes executes up to 64 independent MiniCast rounds of the same
// configuration at once, one per bit lane, with possession and the
// wave-start relay snapshot held as uint64 lane masks. rngs[l] is lane l's
// private randomness stream; the contract is per-lane exactness: lane l of
// the returned masks matches RunArena(cfg, rngs[l], ...) bit for bit, with
// identical RNG consumption per lane, so any partition of a trial batch
// into lane groups is deterministic. ledgers (optional, per lane; nil
// entries skip crediting) receive the same per-phase radio credits the
// scalar path books.
//
// StopListen is not supported (it would make the per-phase draw schedule
// lane-dependent in a way only the reconstruction phase uses; core runs
// that phase scalar per lane) and ListenFilter must be pure — it is
// evaluated once per (node, item) instead of once per phase. Engines are
// not advanced here: Duration is deterministic, callers advance per-lane
// engines themselves. Buffers are arena-borrowed; the result is valid
// until the caller's next arena Reset.
func RunLanes(cfg Config, lanes int, rngs []*rand.Rand, ledgers []*sim.RadioLedger,
	a *sim.Arena) (*LaneResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.StopListen != nil {
		return nil, fmt.Errorf("%w: StopListen is unsupported in lane execution", ErrBadConfig)
	}
	if lanes < 1 || lanes > phy.MaxLanes {
		return nil, fmt.Errorf("%w: %d lanes (want 1..%d)", ErrBadConfig, lanes, phy.MaxLanes)
	}
	if len(rngs) < lanes {
		return nil, fmt.Errorf("%w: %d rngs for %d lanes", ErrBadConfig, len(rngs), lanes)
	}
	if ledgers != nil && len(ledgers) < lanes {
		return nil, fmt.Errorf("%w: %d ledgers for %d lanes", ErrBadConfig, len(ledgers), lanes)
	}
	ch := cfg.Channel
	n := ch.NumNodes()
	cl := len(cfg.Items)
	params := ch.Params()
	slotLen, err := params.SlotDuration(cfg.PayloadBytes)
	if err != nil {
		return nil, err
	}
	burstProb := params.InterferenceBurstProb
	failed := cfg.Failed
	table := ch.LinkTable()
	threshold := cfg.LevelThreshold
	if threshold == 0 {
		threshold = 0.5
	}
	levelOf, levels := hopLevels(table, cfg.Initiator, threshold, a)
	numLevels := len(levels)
	phaseLen := time.Duration(cl) * slotLen
	L := lanes
	allLanes := ^uint64(0) >> (64 - L)

	haveMask := a.Uint64s(n * cl)
	// relayMask is the wave-start possession snapshot: a node fills a chain
	// sub-slot only with data it held when the wave began (rxWave < wave in
	// the scalar loop), so data moves at most one hop per wave.
	relayMask := a.Uint64s(n * cl)
	for i, it := range cfg.Items {
		haveMask[it.Owner*cl+i] = allLanes
	}

	// listenable[node*cl+item] precomputes the (pure) listen filter;
	// listenSlots feeds the per-phase radio accounting, as in the scalar
	// path.
	var listenable []bool
	listenSlots := a.Ints(n)
	if cfg.ListenFilter != nil {
		listenable = a.Bools(n * cl)
		for node := 0; node < n; node++ {
			for i, it := range cfg.Items {
				if cfg.ListenFilter(node, it) {
					listenable[node*cl+i] = true
					listenSlots[node]++
				}
			}
		}
	} else {
		for node := 0; node < n; node++ {
			listenSlots[node] = cl
		}
	}

	jammedMask := a.Uint64s(n)
	txs := a.Ints(n)
	txLanes := a.Uint64s(n)
	lacking := lackingCounts(cfg, n, a)
	stopped := a.Bools(n) // all false: StopListen is unsupported here
	txElig := a.Ints(n)   // per-lane scratch for creditPhase
	// fullElig[node] and laneElig[node*L+l] split a level node's transmit-
	// eligible item count into items held in every lane and, per lane, the
	// rest (radio accounting only).
	var fullElig, laneElig []int
	if ledgers != nil {
		fullElig = a.Ints(n)
		laneElig = a.Ints(n * L)
	}

	for wave := 0; wave < cfg.NTX; wave++ {
		copy(relayMask, haveMask)
		for ℓ := 0; ℓ < numLevels; ℓ++ {
			// Ambient interference bursts block whole phases per (node,
			// lane); every lane draws for every node, like every scalar
			// trial does.
			if burstProb > 0 {
				for node := 0; node < n; node++ {
					var jm uint64
					for l := 0; l < L; l++ {
						if rngs[l].Float64() < burstProb {
							jm |= uint64(1) << l
						}
					}
					jammedMask[node] = jm
				}
			}
			levelNodes := levels[ℓ]
			for itemIdx := range cfg.Items {
				// Every live node already holds the item in every lane: no
				// receiver would draw.
				if lacking[itemIdx] == 0 {
					continue
				}
				// Transmitters in ascending node order (levels are built
				// ascending) — order is load-bearing for trace union
				// products.
				ntx := 0
				var union uint64
				for _, node := range levelNodes {
					if isFailed(failed, node) {
						continue
					}
					if m := relayMask[node*cl+itemIdx]; m != 0 {
						txs[ntx] = node
						txLanes[ntx] = m
						ntx++
						union |= m
					}
				}
				if union == 0 {
					continue // nobody at this level can transmit in any lane
				}
				for rx, k := 0, itemIdx; rx < n; rx, k = rx+1, k+cl {
					if isFailed(failed, rx) {
						continue
					}
					if listenable != nil && !listenable[k] {
						continue
					}
					act := allLanes &^ haveMask[k] &^ jammedMask[rx]
					if act == 0 {
						continue
					}
					if rcv := table.ReceiveConcurrentMask(rx, txs[:ntx], txLanes[:ntx], act, rngs); rcv != 0 {
						haveMask[k] |= rcv
						if haveMask[k] == allLanes {
							lacking[itemIdx]--
						}
					}
				}
			}

			// Radio accounting for the phase, per lane: the transmit-
			// eligible snapshot is exactly the wave-start relay mask. Each
			// level node's masks are counted once for all lanes: an
			// all-lanes mask adds one to every lane, any other adds one per
			// set bit.
			if ledgers != nil {
				for _, node := range levelNodes {
					full := 0
					perLane := laneElig[node*L : (node+1)*L]
					clear(perLane)
					for _, m := range relayMask[node*cl : (node+1)*cl] {
						if m == allLanes {
							full++
							continue
						}
						for ; m != 0; m &= m - 1 {
							perLane[bits.TrailingZeros64(m)]++
						}
					}
					fullElig[node] = full
				}
				for l := 0; l < L; l++ {
					if ledgers[l] == nil {
						continue
					}
					for _, node := range levelNodes {
						txElig[node] = fullElig[node] + laneElig[node*L+l]
					}
					if err := creditPhase(ledgers[l], failed, levelOf, ℓ, txElig,
						listenSlots, stopped, slotLen, cl); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	return &LaneResult{
		HaveMask: haveMask,
		Waves:    cfg.NTX,
		Levels:   numLevels,
		ChainLen: cl,
		SlotLen:  slotLen,
		PhaseLen: phaseLen,
		Duration: time.Duration(cfg.NTX) * time.Duration(numLevels) * phaseLen,
	}, nil
}
