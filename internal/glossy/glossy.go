// Package glossy implements the Glossy concurrent-transmission flood
// (Ferrari/Zimmerling et al., IPSN 2011): an initiator transmits a packet;
// every node that receives it retransmits in the immediately following slot,
// perfectly synchronized with every other relay of the same packet, so the
// concurrent transmissions interfere constructively. Each node relays at most
// NTX times and keeps its radio on from the flood start until its last
// transmission (the "radio off at NTX" optimization in the original paper).
//
// Glossy is both the conceptual building block of MiniCast (which intersperses
// many Glossy floods in one TDMA chain) and the network-wide time-sync
// reference that makes slot-level synchronization possible; the simulation
// assumes sync has been established by a Glossy flood at round start.
package glossy

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
)

// Errors returned by the package.
var (
	// ErrBadConfig is returned for invalid flood configuration.
	ErrBadConfig = errors.New("glossy: invalid configuration")
)

// Config parameterizes one flood.
type Config struct {
	// Channel is the radio backend (any phy.Radio implementation).
	Channel phy.Radio
	// Initiator is the flooding node.
	Initiator int
	// NTX is the per-node retransmission budget.
	NTX int
	// PayloadBytes sizes the flooded frame.
	PayloadBytes int
	// MaxSlots bounds the flood length; 0 selects a safe default of
	// 4 × NTX × number of nodes.
	MaxSlots int
}

func (c Config) validate() error {
	switch {
	case c.Channel == nil:
		return fmt.Errorf("%w: nil channel", ErrBadConfig)
	case c.Initiator < 0 || c.Initiator >= c.Channel.NumNodes():
		return fmt.Errorf("%w: initiator %d", ErrBadConfig, c.Initiator)
	case c.NTX <= 0:
		return fmt.Errorf("%w: NTX %d", ErrBadConfig, c.NTX)
	case c.PayloadBytes < 0 || c.PayloadBytes > phy.MaxPSDU:
		return fmt.Errorf("%w: payload %d", ErrBadConfig, c.PayloadBytes)
	case c.MaxSlots < 0:
		return fmt.Errorf("%w: max slots %d", ErrBadConfig, c.MaxSlots)
	}
	return nil
}

// Result reports one flood execution.
type Result struct {
	// Received[i] reports whether node i got the packet.
	Received []bool
	// FirstRxSlot[i] is the slot of first reception (-1 if never; 0 means
	// the initiator's own slot-0 transmission).
	FirstRxSlot []int
	// Latency[i] is the virtual time from flood start to first reception.
	Latency []time.Duration
	// Slots is the number of slots the flood occupied.
	Slots int
	// Duration is Slots × slot length.
	Duration time.Duration
	// SlotLength is the per-slot duration used.
	SlotLength time.Duration

	initiator int
}

// Coverage returns the fraction of nodes (excluding the initiator) that
// received the packet.
func (r *Result) Coverage() float64 {
	n := len(r.Received)
	if n <= 1 {
		return 1
	}
	got := 0
	for i, ok := range r.Received {
		if i != initiatorIndex(r) && ok {
			got++
		}
	}
	return float64(got) / float64(n-1)
}

func initiatorIndex(r *Result) int { return r.initiator }

// RunArena executes one flood. The RNG drives fading and reception draws;
// the ledger (optional) is credited with tx/rx time; the engine (optional)
// has its clock advanced by the flood duration. Every scratch array and
// Result backing slice is borrowed from the arena (nil: heap-allocate), and
// res (nil: allocate one) is overwritten in place. The returned Result
// aliases arena memory and is valid until the caller's next a.Reset(); a
// warm flood — same arena, same res, Reset between floods — performs zero
// heap allocations. The arena changes where buffers live, never what is
// drawn: outcomes for the same RNG state do not depend on it.
func RunArena(cfg Config, rng *rand.Rand, ledger *sim.RadioLedger, engine *sim.Engine,
	a *sim.Arena, res *Result) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
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
	burstProb := params.InterferenceBurstProb // invariant for the whole flood

	// All buffer borrows go through the arena, whose getters fall back to
	// plain make() on a nil receiver — one allocation path for both modes.
	if res == nil {
		res = &Result{}
	}
	*res = Result{
		Received:    a.Bools(n),
		FirstRxSlot: a.Ints(n),
		Latency:     a.Durations(n),
		SlotLength:  slotLen,
		initiator:   cfg.Initiator,
	}
	for i := range res.FirstRxSlot {
		res.FirstRxSlot[i] = -1
		res.Latency[i] = -1
	}
	res.Received[cfg.Initiator] = true
	res.FirstRxSlot[cfg.Initiator] = 0
	res.Latency[cfg.Initiator] = 0

	txCount := a.Ints(n)  // transmissions performed
	doneSlot := a.Ints(n) // slot after which the radio turned off (-1: still on)
	for i := range doneSlot {
		doneSlot[i] = -1
	}

	// Slot schedule as three rotating buckets instead of a full-node scan
	// per slot: Glossy only ever schedules a node for slot+1 (first
	// reception) or slot+2 (relay alternation), so `cur` holds this slot's
	// transmitters, `next1`/`next2` the two upcoming slots. `scheduled`
	// counts nodes present in any bucket (each node is in at most one);
	// the flood ends when it reaches zero — every budget exhausted.
	cur := a.Ints(n)[:0]
	next1 := a.Ints(n)[:0]
	next2 := a.Ints(n)[:0]
	merged := a.Ints(n)
	cur = append(cur, cfg.Initiator)
	scheduled := 1
	// A bucket fills as two ascending runs — relays rescheduled two slots
	// ago, then last slot's receivers — so tracking the run boundary turns
	// "sort the transmitters" into a linear merge, or nothing at all when
	// only one run is present. boundCur/boundNext1 are the run-A lengths
	// of cur and next1.
	boundCur, boundNext1 := 1, 0

	// Undecided receivers as an ascending linked list (rxNext[n] is the
	// head sentinel): once a node receives it never draws again, so the
	// reception loop shrinks with coverage instead of re-scanning all n
	// nodes every slot. Iteration order stays ascending — RNG draw order
	// is exactly the old full scan's.
	rxNext := a.Ints(n + 1)
	{
		prev := n
		for rx := 0; rx < n; rx++ {
			if res.Received[rx] {
				continue // the initiator starts decided
			}
			rxNext[prev] = rx
			prev = rx
		}
		rxNext[prev] = -1
	}

	slot := 0
	for ; slot < maxSlots; slot++ {
		if scheduled == 0 {
			break
		}
		if len(cur) == 0 {
			// Glossy's relay schedule alternates tx slots, so idle slots
			// occur; the flood only ends when every budget is exhausted.
			boundCur, boundNext1 = boundNext1, len(next2)
			cur, next1, next2 = next1, next2, cur
			continue
		}
		// Restore the ascending order the old full-node scan produced —
		// transmitter order is load-bearing for backends that fold links
		// in list order (trace union products).
		transmitters := cur
		if boundCur > 0 && boundCur < len(cur) {
			transmitters = mergeRuns(merged[:0], cur[:boundCur], cur[boundCur:])
		}
		// Receptions, over the undecided list only.
		for prev, rx := n, rxNext[n]; rx >= 0; {
			if burstProb > 0 && rng.Float64() < burstProb {
				prev, rx = rx, rxNext[rx]
				continue // receiver blocked by an ambient interference burst
			}
			if table.ReceiveConcurrentFast(rx, transmitters, rng) {
				res.Received[rx] = true
				res.FirstRxSlot[rx] = slot
				res.Latency[rx] = time.Duration(slot+1) * slotLen
				// Glossy: retransmit in the immediately next slot.
				next1 = append(next1, rx)
				scheduled++
				rxNext[prev] = rxNext[rx] // decided: unlink, prev stands
				rx = rxNext[rx]
				continue
			}
			prev, rx = rx, rxNext[rx]
		}
		// Account transmissions and schedule follow-ups: Glossy alternates
		// tx slots (tx, skip, tx, ...) so relays of the same wave stay
		// synchronized.
		for _, tx := range transmitters {
			txCount[tx]++
			if txCount[tx] < cfg.NTX {
				next2 = append(next2, tx)
			} else {
				doneSlot[tx] = slot // radio off after final transmission
				scheduled--
			}
		}
		boundCur, boundNext1 = boundNext1, len(next2)
		cur, next1, next2 = next1, next2, cur[:0]
	}
	res.Slots = slot
	res.Duration = time.Duration(slot) * slotLen

	if ledger != nil {
		if err := creditRadio(ledger, res, txCount, doneSlot, slotLen, slot); err != nil {
			return nil, err
		}
	}
	if engine != nil {
		if err := engine.Advance(res.Duration); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// mergeRuns appends the merge of two ascending, disjoint runs to dst and
// returns it.
func mergeRuns(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Initiator returns the flood's initiating node.
func (r *Result) Initiator() int { return r.initiator }

// creditRadio converts the flood schedule into per-node tx/rx time: every
// node is listening from slot 0 until it turns off (doneSlot, or flood end if
// it never exhausted NTX), minus the slots it spent transmitting.
func creditRadio(ledger *sim.RadioLedger, res *Result, txCount, doneSlot []int, slotLen time.Duration, totalSlots int) error {
	for i := range txCount {
		onSlots := totalSlots
		if doneSlot[i] >= 0 {
			onSlots = doneSlot[i] + 1
		}
		txSlots := txCount[i]
		rxSlots := onSlots - txSlots
		if rxSlots < 0 {
			rxSlots = 0
		}
		err := ledger.AddBulk(i,
			time.Duration(txSlots)*slotLen,
			time.Duration(rxSlots)*slotLen)
		if err != nil {
			return err
		}
	}
	return nil
}
