package glossy

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
)

// RunLanes executes up to 64 independent floods of the same configuration
// at once, one per bit lane: coverage, the slot buckets, and the undecided-
// receiver state are uint64 lane masks, so certain links (a hard unit disk,
// PRR-0/1 trace entries) resolve for every lane with a handful of bitset
// operations instead of 64 scalar draws.
//
// rngs[l] is lane l's private randomness stream, and the contract is
// per-lane exactness: res[l] is bit-identical to
// RunArena(cfg, rngs[l], ...) for the same starting RNG state, with
// identical RNG consumption — each lane's stream is touched exactly when
// its scalar flood would touch it, so any partition of a trial batch into
// lane groups produces the same per-trial results. ledgers (optional, per lane; nil entries skip crediting) receive
// the same radio-time credits the scalar path books. Engines are not
// advanced here: callers advance per-lane engines by each Result.Duration
// (sim.Engine state never feeds back into flood outcomes).
//
// All scratch and result buffers are borrowed from the arena, and res (nil:
// allocate) is overwritten in place, so a warm call — same arena, same res,
// Reset between calls — performs zero heap allocations.
func RunLanes(cfg Config, lanes int, rngs []*rand.Rand, ledgers []*sim.RadioLedger,
	a *sim.Arena, res []*Result) ([]*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
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
	if res == nil {
		res = make([]*Result, lanes)
	} else if len(res) < lanes {
		return nil, fmt.Errorf("%w: %d result slots for %d lanes", ErrBadConfig, len(res), lanes)
	}
	ch := cfg.Channel
	n := ch.NumNodes()
	params := ch.Params()
	slotLen, err := params.SlotDuration(cfg.PayloadBytes)
	if err != nil {
		return nil, err
	}
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		maxSlots = 4 * cfg.NTX * n
	}
	table := ch.LinkTable()
	burstProb := params.InterferenceBurstProb
	L := lanes
	allLanes := ^uint64(0) >> (64 - L)

	// Per-(node,lane) state is node-major with stride L; per-node lane
	// masks replace the scalar path's bucket lists and undecided list.
	receivedMask := a.Uint64s(n)
	firstRx := a.Ints(n * L)
	txCount := a.Ints(n * L)
	doneSlot := a.Ints(n * L)
	for i := range doneSlot {
		doneSlot[i] = -1
	}
	scheduled := a.Ints(L)
	endSlot := a.Ints(L)
	for l := 0; l < L; l++ {
		scheduled[l] = 1 // the initiator
		endSlot[l] = maxSlots
	}
	// cur/next1/next2 are the scalar path's three rotating slot buckets,
	// as lane masks per node: Glossy only ever schedules a node for slot+1
	// (first reception) or slot+2 (relay alternation). Scanning them in
	// node order yields the ascending transmitter lists the scalar merge
	// maintained — order is load-bearing for trace union products.
	cur := a.Uint64s(n)
	next1 := a.Uint64s(n)
	next2 := a.Uint64s(n)
	txs := a.Ints(n)
	txLanes := a.Uint64s(n)
	txNode := a.Uint64s(n) // the TxSet's node-indexed scratch
	var set phy.TxSet

	receivedMask[cfg.Initiator] = allLanes
	cur[cfg.Initiator] = allLanes

	liveMask := allLanes
	slot := 0
	for ; slot < maxSlots; slot++ {
		if liveMask == 0 {
			break
		}
		// Gather this slot's transmitters (ascending by construction).
		ntx := 0
		var slotLanes uint64
		for node := 0; node < n; node++ {
			if m := cur[node]; m != 0 {
				txs[ntx] = node
				txLanes[ntx] = m
				ntx++
				slotLanes |= m
			}
		}
		if slotLanes == 0 {
			// Idle alternation slot in every live lane: no draws anywhere.
			cur, next1, next2 = next1, next2, cur
			continue
		}
		// Receptions: lanes idle this slot (no bit in slotLanes) and lanes
		// where rx already holds the packet draw nothing — exactly the
		// scalar skip set. Every receiver draws on one prepared set.
		set.Prepare(txs[:ntx], txLanes[:ntx], txNode)
		for rx := 0; rx < n; rx++ {
			und := slotLanes &^ receivedMask[rx]
			if und == 0 {
				continue
			}
			act := und
			if burstProb > 0 {
				for m := und; m != 0; {
					l := bits.TrailingZeros64(m)
					bit := uint64(1) << l
					m &^= bit
					if rngs[l].Float64() < burstProb {
						act &^= bit // receiver blocked by an interference burst
					}
				}
			}
			rcv := table.ReceiveMask(rx, &set, act, rngs)
			if rcv == 0 {
				continue
			}
			for m := rcv; m != 0; {
				l := bits.TrailingZeros64(m)
				m &^= uint64(1) << l
				firstRx[rx*L+l] = slot
				scheduled[l]++
			}
			receivedMask[rx] |= rcv
			next1[rx] |= rcv // Glossy: retransmit in the immediately next slot
		}
		set.Clear()
		// Account transmissions and schedule follow-ups; zeroing cur as it
		// is consumed readies it for reuse as next2 after the rotation.
		for i := 0; i < ntx; i++ {
			node := txs[i]
			for m := txLanes[i]; m != 0; {
				l := bits.TrailingZeros64(m)
				bit := uint64(1) << l
				m &^= bit
				idx := node*L + l
				txCount[idx]++
				if txCount[idx] < cfg.NTX {
					next2[node] |= bit
				} else {
					doneSlot[idx] = slot // radio off after final transmission
					scheduled[l]--
					if scheduled[l] == 0 {
						endSlot[l] = slot + 1
						liveMask &^= bit
					}
				}
			}
			cur[node] = 0
		}
		cur, next1, next2 = next1, next2, cur
	}

	// Unpack each lane into its scalar-shaped Result.
	txCol := a.Ints(n)
	doneCol := a.Ints(n)
	for l := 0; l < L; l++ {
		r := res[l]
		if r == nil {
			r = &Result{}
			res[l] = r
		}
		*r = Result{
			Received:    a.Bools(n),
			FirstRxSlot: a.Ints(n),
			Latency:     a.Durations(n),
			Slots:       endSlot[l],
			Duration:    time.Duration(endSlot[l]) * slotLen,
			SlotLength:  slotLen,
			initiator:   cfg.Initiator,
		}
		bit := uint64(1) << l
		for i := 0; i < n; i++ {
			if receivedMask[i]&bit != 0 {
				r.Received[i] = true
				r.FirstRxSlot[i] = firstRx[i*L+l]
				r.Latency[i] = time.Duration(firstRx[i*L+l]+1) * slotLen
			} else {
				r.FirstRxSlot[i] = -1
				r.Latency[i] = -1
			}
		}
		r.FirstRxSlot[cfg.Initiator] = 0
		r.Latency[cfg.Initiator] = 0

		if ledgers != nil && ledgers[l] != nil {
			for i := 0; i < n; i++ {
				txCol[i] = txCount[i*L+l]
				doneCol[i] = doneSlot[i*L+l]
			}
			if err := creditRadio(ledgers[l], r, txCol, doneCol, slotLen, endSlot[l]); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
