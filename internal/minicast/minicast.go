// Package minicast implements MiniCast (Saha et al., DCOSS 2017): efficient
// many-to-many data sharing built on synchronous transmission and TDMA.
//
// MiniCast generalizes a Glossy flood from one packet to a *chain* of
// packets: the chain has one sub-slot per data item, and every node that
// relays the chain fills in the sub-slots for the items it currently holds.
// The relay schedule is TDMA by hop level: the initiator transmits the chain,
// then its first-hop neighbors transmit the chain concurrently (constructive
// interference, as in Glossy), then the second hop, and so on. One pass of
// the chain through all levels is a "wave"; the parameter NTX is the number
// of waves each node transmits the full chain.
//
// Data diffuses outward within a wave (level ℓ hears level ℓ-1 earlier in
// the same wave) and inward by one level per wave, so:
//
//   - items from a node h hops away need roughly h waves to arrive, and
//   - all-to-all coverage needs NTX on the order of the network diameter,
//     with margin for packet loss,
//
// which is exactly the non-linear NTX/coverage trade-off the paper's S4
// exploits: a small NTX already delivers the items of nearby nodes while
// full coverage costs disproportionately more.
package minicast

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
	// ErrBadConfig is returned for invalid chain configuration.
	ErrBadConfig = errors.New("minicast: invalid configuration")
)

// Item is one sub-slot payload of the chain.
type Item struct {
	// Owner is the node that injects the item.
	Owner int
	// Dst is the destination node for point-to-point items (encrypted
	// shares); -1 marks broadcast items (public-point sums). Dst is metadata
	// for listen filters — every node may relay any item.
	Dst int
}

// Config parameterizes one MiniCast dissemination round.
type Config struct {
	// Channel is the radio backend (any phy.Radio implementation).
	Channel phy.Radio
	// Initiator starts the chain and anchors the TDMA level schedule.
	Initiator int
	// NTX is the number of chain waves.
	NTX int
	// Items is the chain, in sub-slot order.
	Items []Item
	// PayloadBytes sizes each sub-slot frame.
	PayloadBytes int
	// LevelThreshold is the link PRR used to derive hop levels (default 0.5).
	LevelThreshold float64
	// ListenFilter, when non-nil, lets a node skip listening during specific
	// sub-slots (radio duty-cycling). Nodes that skip a sub-slot can never
	// relay that item, so filters trade energy for dissemination reach.
	ListenFilter func(node int, it Item) bool
	// StopListen, when non-nil, is evaluated per node before every phase;
	// once true the node stops listening for the rest of the round (it still
	// honors its transmit phases). have is the node's item bitmap and must
	// not be mutated.
	StopListen func(node int, have []bool) bool
	// Failed marks crashed nodes: they neither transmit nor receive.
	// Nil means no failures.
	Failed []bool
}

func (c Config) validate() error {
	switch {
	case c.Channel == nil:
		return fmt.Errorf("%w: nil channel", ErrBadConfig)
	case c.Initiator < 0 || c.Initiator >= c.Channel.NumNodes():
		return fmt.Errorf("%w: initiator %d", ErrBadConfig, c.Initiator)
	case c.NTX <= 0:
		return fmt.Errorf("%w: NTX %d", ErrBadConfig, c.NTX)
	case len(c.Items) == 0:
		return fmt.Errorf("%w: empty chain", ErrBadConfig)
	case c.PayloadBytes < 0 || c.PayloadBytes > phy.MaxPSDU:
		return fmt.Errorf("%w: payload %d", ErrBadConfig, c.PayloadBytes)
	case c.Failed != nil && len(c.Failed) != c.Channel.NumNodes():
		return fmt.Errorf("%w: Failed has %d entries for %d nodes",
			ErrBadConfig, len(c.Failed), c.Channel.NumNodes())
	}
	for i, it := range c.Items {
		if it.Owner < 0 || it.Owner >= c.Channel.NumNodes() {
			return fmt.Errorf("%w: item %d owner %d", ErrBadConfig, i, it.Owner)
		}
		if it.Dst < -1 || it.Dst >= c.Channel.NumNodes() {
			return fmt.Errorf("%w: item %d dst %d", ErrBadConfig, i, it.Dst)
		}
	}
	return nil
}

// Result reports one dissemination round.
type Result struct {
	// Have[node][item] reports possession at round end.
	Have [][]bool
	// RxAt[node][item] is the virtual time (from round start) the node first
	// held the item; 0 for items the node owns, -1 if never received.
	RxAt [][]time.Duration
	// StoppedAt[node] is when StopListen fired for the node (-1: never).
	StoppedAt []time.Duration
	// Failed is the round's crash mask, Config.Failed as given (nil: no
	// failures).
	Failed []bool
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

// CoverageOf returns the fraction of non-owner, non-failed nodes holding the
// item at round end.
func (r *Result) CoverageOf(item int) float64 {
	n := len(r.Have)
	if n <= 1 {
		return 1
	}
	got, eligible := 0, 0
	for node := 0; node < n; node++ {
		if r.RxAt[node][item] == 0 || isFailed(r.Failed, node) { // owner or crashed
			continue
		}
		eligible++
		if r.Have[node][item] {
			got++
		}
	}
	if eligible == 0 {
		return 1
	}
	return float64(got) / float64(eligible)
}

// MeanCoverage averages CoverageOf over all items.
func (r *Result) MeanCoverage() float64 {
	if r.ChainLen == 0 {
		return 0
	}
	total := 0.0
	for i := 0; i < r.ChainLen; i++ {
		total += r.CoverageOf(i)
	}
	return total / float64(r.ChainLen)
}

// Run executes one MiniCast round. The RNG drives reception draws; ledger
// (optional) accumulates radio time; engine (optional) advances by Duration.
func Run(cfg Config, rng *rand.Rand, ledger *sim.RadioLedger, engine *sim.Engine) (*Result, error) {
	return RunArena(cfg, rng, ledger, engine, nil)
}

// RunArena is Run with every per-round buffer — the n×chainLen possession
// and arrival matrices, wave counters, level partitions, scratch lists —
// borrowed from the arena (nil: heap-allocate, as Run always did). The
// returned Result aliases arena memory and is valid until the caller's next
// a.Reset(); core.RunRound holds one arena across its chain phases and
// resets it once per round. Outcomes are bit-identical to Run for the same
// RNG state.
func RunArena(cfg Config, rng *rand.Rand, ledger *sim.RadioLedger, engine *sim.Engine,
	a *sim.Arena) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ch := cfg.Channel
	n := ch.NumNodes()
	chainLen := len(cfg.Items)

	params := ch.Params()
	slotLen, err := params.SlotDuration(cfg.PayloadBytes)
	if err != nil {
		return nil, err
	}
	burstProb := params.InterferenceBurstProb // invariant for the whole round
	failed := cfg.Failed
	table := ch.LinkTable()
	threshold := cfg.LevelThreshold
	if threshold == 0 {
		threshold = 0.5
	}

	levelOf, levels := hopLevels(table, cfg.Initiator, threshold, a)
	numLevels := len(levels)
	phaseLen := time.Duration(chainLen) * slotLen

	// The two n×chainLen result matrices and the wave tracker share one
	// flat backing each; the result rows slice the first two. The chain
	// loop indexes the flat backings directly (entry node*chainLen+item).
	// All borrows go through the arena, whose getters fall back to plain
	// make() on a nil receiver — one allocation path for both modes.
	haveFlat := a.Bools(n * chainLen)
	have := a.BoolRows(n)
	rxFlat := a.Durations(n * chainLen)
	rxAt := a.DurationRows(n)
	waveFlat := a.Int32s(n * chainLen)
	for node := 0; node < n; node++ {
		have[node] = haveFlat[node*chainLen : (node+1)*chainLen]
		rxAt[node] = rxFlat[node*chainLen : (node+1)*chainLen]
	}
	stoppedAt := a.Durations(n)

	res := &Result{
		Have:      have,
		RxAt:      rxAt,
		StoppedAt: stoppedAt,
		Failed:    failed,
		Waves:     cfg.NTX,
		Levels:    numLevels,
		ChainLen:  chainLen,
		SlotLen:   slotLen,
		PhaseLen:  phaseLen,
		Duration:  time.Duration(cfg.NTX) * time.Duration(numLevels) * phaseLen,
	}
	// waveFlat[node*chainLen+item] is the wave in which the node obtained
	// the item; an item received in wave w is relayed from wave w+1 on (a
	// node fills a chain sub-slot only with data it held when its
	// transmission turn came, so data moves at most one hop per wave).
	// Owners hold their items from the start, wave -1 (failed owners hold
	// them too, but will never transmit).
	notHeld := int32(cfg.NTX) + 1 // sentinel: not held
	for k := range rxFlat {
		rxFlat[k] = -1
		waveFlat[k] = notHeld
	}
	for node := range stoppedAt {
		stoppedAt[node] = -1
	}
	for i, it := range cfg.Items {
		k := it.Owner*chainLen + i
		haveFlat[k] = true
		rxFlat[k] = 0
		waveFlat[k] = -1
	}

	// holdersAtLevel[ℓ][item] counts level-ℓ nodes holding the item; lets a
	// phase skip sub-slots with nothing to transmit.
	holdersFlat := a.Ints(numLevels * chainLen)
	holdersAtLevel := a.IntRows(numLevels)
	for ℓ := range holdersAtLevel {
		holdersAtLevel[ℓ] = holdersFlat[ℓ*chainLen : (ℓ+1)*chainLen]
	}
	for i, it := range cfg.Items {
		if ℓ := levelOf[it.Owner]; ℓ >= 0 {
			holdersAtLevel[ℓ][i]++
		}
	}
	lacking := lackingCounts(cfg, n, a)
	// listenSlots[node] counts sub-slots the node's filter admits.
	listenSlots := a.Ints(n)
	for node := 0; node < n; node++ {
		if cfg.ListenFilter == nil {
			listenSlots[node] = chainLen
			continue
		}
		for _, it := range cfg.Items {
			if cfg.ListenFilter(node, it) {
				listenSlots[node]++
			}
		}
	}
	stopped := a.Bools(n)
	// deaf[node] marks, per phase, a node that cannot receive at all:
	// stopped, jammed by an interference burst, or failed.
	deaf := a.Bools(n)
	// txEligible[node] snapshots, per phase, how many items a level node may
	// transmit (for radio accounting); written for every level node before
	// creditPhase reads it, so no per-phase clearing is needed.
	txEligible := a.Ints(n)

	txers := a.Ints(n)[:0]
	for wave := 0; wave < cfg.NTX; wave++ {
		w := int32(wave)
		for ℓ := 0; ℓ < numLevels; ℓ++ {
			phaseStart := (time.Duration(wave)*time.Duration(numLevels) + time.Duration(ℓ)) * phaseLen

			// Evaluate stop predicates at phase boundaries. A stopped node
			// never listens again, so it leaves every item's lacking count.
			if cfg.StopListen != nil {
				for node := 0; node < n; node++ {
					if stopped[node] || isFailed(failed, node) {
						continue
					}
					if cfg.StopListen(node, have[node]) {
						stopped[node] = true
						stoppedAt[node] = phaseStart
						for i, h := range have[node] {
							if !h {
								lacking[i]--
							}
						}
					}
				}
			}

			// Ambient interference bursts block whole phases per node; every
			// node draws, whatever its state.
			for node := 0; node < n; node++ {
				jammed := burstProb > 0 && rng.Float64() < burstProb
				deaf[node] = jammed || stopped[node] || isFailed(failed, node)
			}

			levelNodes := levels[ℓ]
			// Snapshot per-node transmit-eligible item counts before the
			// phase mutates holdings (for radio accounting).
			if ledger != nil {
				for _, node := range levelNodes {
					count := 0
					for _, rw := range waveFlat[node*chainLen : (node+1)*chainLen] {
						if rw < w {
							count++
						}
					}
					txEligible[node] = count
				}
			}
			for itemIdx, it := range cfg.Items {
				// Skip sub-slots nobody at this level can transmit, and
				// sub-slots no node can still receive: every receiver would
				// pass without a draw.
				if holdersAtLevel[ℓ][itemIdx] == 0 || lacking[itemIdx] == 0 {
					continue
				}
				txers = txers[:0]
				for _, node := range levelNodes {
					if waveFlat[node*chainLen+itemIdx] < w && !isFailed(failed, node) {
						txers = append(txers, node)
					}
				}
				if len(txers) == 0 {
					continue
				}
				rxTime := phaseStart + time.Duration(itemIdx+1)*slotLen
				for rx, k := 0, itemIdx; rx < n; rx, k = rx+1, k+chainLen {
					if haveFlat[k] || deaf[rx] {
						continue
					}
					if cfg.ListenFilter != nil && !cfg.ListenFilter(rx, it) {
						continue
					}
					// A same-level node not holding the item listens too.
					if !table.ReceiveConcurrentFast(rx, txers, rng) {
						continue
					}
					haveFlat[k] = true
					rxFlat[k] = rxTime
					waveFlat[k] = w
					lacking[itemIdx]--
					if lv := levelOf[rx]; lv >= 0 {
						holdersAtLevel[lv][itemIdx]++
					}
				}
			}

			// Radio accounting for the phase.
			if ledger != nil {
				if err := creditPhase(ledger, failed, levelOf, ℓ, txEligible, listenSlots, stopped, slotLen, chainLen); err != nil {
					return nil, err
				}
			}
		}
	}

	if engine != nil {
		if err := engine.Advance(res.Duration); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func isFailed(failed []bool, node int) bool {
	return failed != nil && failed[node]
}

// lackingCounts returns, per item, the number of live nodes that do not
// hold it at round start (every live node but a live owner). The chain
// kernels decrement an item's count as nodes obtain it (in every lane, for
// RunLanes) or stop listening; at zero no receiver would draw for the item,
// so its sub-slots are skipped before their transmitter lists are built.
func lackingCounts(cfg Config, n int, a *sim.Arena) []int {
	live := n
	for _, f := range cfg.Failed {
		if f {
			live--
		}
	}
	lacking := a.Ints(len(cfg.Items))
	for i, it := range cfg.Items {
		lacking[i] = live
		if !isFailed(cfg.Failed, it.Owner) {
			lacking[i]--
		}
	}
	return lacking
}

// creditPhase charges each node's radio for one phase: transmitting nodes pay
// tx for the sub-slots they fill and rx for the remainder (they listen for
// items they lack); listening nodes pay rx for the sub-slots their filter
// admits; stopped and failed nodes pay nothing beyond their own tx duties.
func creditPhase(ledger *sim.RadioLedger, failed []bool, levelOf []int, phase int,
	txEligible []int, listenSlots []int, stopped []bool, slotLen time.Duration, chainLen int) error {
	for node := range levelOf {
		if isFailed(failed, node) {
			continue
		}
		var txSlots, rxSlots int
		if levelOf[node] == phase {
			txSlots = txEligible[node]
			if !stopped[node] {
				rxSlots = chainLen - txSlots
			}
		} else if !stopped[node] {
			rxSlots = listenSlots[node]
		}
		if rxSlots < 0 {
			rxSlots = 0
		}
		err := ledger.AddBulk(node,
			time.Duration(txSlots)*slotLen,
			time.Duration(rxSlots)*slotLen)
		if err != nil {
			return err
		}
	}
	return nil
}

// hopLevels partitions nodes into TDMA levels by hop distance from the
// initiator (link-table lookups, arena-borrowed buffers). Unreachable nodes
// get level -1 and never transmit. Level membership is in ascending node
// order, exactly as the historical per-level appends produced.
func hopLevels(table *phy.LinkTable, initiator int, threshold float64, a *sim.Arena) ([]int, [][]int) {
	n := table.NumNodes()
	dist := a.Ints(n)
	table.HopDistancesInto(dist, initiator, threshold)
	maxLevel := 0
	for _, d := range dist {
		if d > maxLevel {
			maxLevel = d
		}
	}
	counts := a.Ints(maxLevel + 1)
	reachable := 0
	for _, d := range dist {
		if d >= 0 {
			counts[d]++
			reachable++
		}
	}
	// One flat member array carved into per-level windows.
	flat := a.Ints(reachable)
	levels := a.IntRows(maxLevel + 1)
	off := 0
	for ℓ := range levels {
		levels[ℓ] = flat[off : off : off+counts[ℓ]]
		off += counts[ℓ]
	}
	for node, d := range dist {
		if d < 0 {
			continue
		}
		levels[d] = append(levels[d], node)
	}
	return dist, levels
}
