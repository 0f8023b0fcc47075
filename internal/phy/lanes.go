package phy

import (
	"math"
	"math/bits"
	"math/rand"
)

// MaxLanes is the trial-lane capacity of the bit-sliced draw kernels: one
// uint64 lane mask packs up to 64 independent Monte-Carlo worlds.
const MaxLanes = 64

// TxSet is one slot's concurrent transmitter list, prepared once for every
// receiver of the slot: ReceiveMask reads each lane's transmitter set off
// it without rescanning the list per lane.
//
// The list is txs with lane masks lanes: txs[i] transmits in the lanes set
// in lanes[i], so lane l's transmitter set is {txs[i] : lanes[i] bit l}.
// Entries may repeat a node; the scalar semantics count every entry.
type TxSet struct {
	txs   []int
	lanes []uint64
	// node[tx] is the union of tx's lane masks, zero for nodes outside the
	// list. It is caller-owned scratch that Clear zeroes again.
	node []uint64
	// any is the union of all lane masks.
	any uint64
	// counts holds every lane's transmitter count as bit-sliced vertical
	// counters: bit l of counts[k] is bit k of lane l's count, over the
	// first planes planes.
	counts [64]uint64
	planes int
}

// Prepare fills the set from a transmitter list. node is caller-owned
// scratch with one entry per node of the table the set is used with, all
// zero (an arena borrow is zeroed; Clear zeroes it again). The set keeps
// txs, lanes and node until Clear, so the caller must not change them in
// between.
func (s *TxSet) Prepare(txs []int, lanes []uint64, node []uint64) {
	s.txs, s.lanes, s.node = txs, lanes, node
	var any uint64
	planes := 0
	for i, tx := range txs {
		m := lanes[i]
		node[tx] |= m
		any |= m
		// Add one to the count of every lane in m: a ripple carry up the
		// planes, opening a fresh plane when the carry runs off the top.
		for k := 0; m != 0; k++ {
			if k == planes {
				s.counts[k] = 0
				planes++
			}
			carry := s.counts[k] & m
			s.counts[k] ^= m
			m = carry
		}
	}
	s.any, s.planes = any, planes
}

// Clear zeroes the node scratch entries Prepare set and empties the set,
// so the scratch can back the next Prepare.
func (s *TxSet) Clear() {
	for _, tx := range s.txs {
		s.node[tx] = 0
	}
	// Stale counter planes need no zeroing: Prepare zeroes each plane as
	// it opens it.
	s.txs, s.lanes, s.node, s.any, s.planes = nil, nil, nil, 0, 0
}

// count returns lane l's transmitter count, duplicates included.
func (s *TxSet) count(l int) int {
	c := 0
	for k := 0; k < s.planes; k++ {
		c |= int(s.counts[k]>>l&1) << k
	}
	return c
}

// ReceiveMask is the bit-sliced form of ReceiveConcurrentFast: it draws one
// reception attempt at rx for up to 64 independent trial lanes at once and
// returns the lane mask of successful receptions. set holds the slot's
// prepared transmitter list (lane l's transmitters are the entries whose
// lane mask has bit l); active masks the lanes that want a draw at all;
// rngs[l] is lane l's private randomness stream.
//
// The contract is per-lane exactness: bit l of the result equals
// ReceiveConcurrentFast(rx, transmitters-of-lane-l, rngs[l]) with identical
// RNG consumption on rngs[l] — same draws, same order, no draws for lanes
// whose scalar call would not draw (inactive lanes, empty transmitter sets,
// sets containing rx itself, and certain links). Because every lane owns
// its RNG, the cross-lane processing order inside the kernel is free. On
// log-distance tables every lane still draws, but the lanes find their
// strongest transmitter together, in one walk down rx's RSSI order; in the
// PRR-only modes certain links — every link of a hard unit disk, the
// PRR-0/1 entries of a trace — resolve for all 64 lanes with pure bitset
// algebra and zero randomness.
func (t *LinkTable) ReceiveMask(rx int, set *TxSet, active uint64, rngs []*rand.Rand) uint64 {
	elig := active & set.any
	if elig == 0 {
		return 0
	}
	// `self` lanes include rx among their transmitters (scalar: immediate
	// false, no draws).
	elig &^= set.node[rx]
	if elig == 0 {
		return 0
	}

	n := t.n
	row := t.prr[rx*n : (rx+1)*n]
	txs, txLanes := set.txs, set.lanes
	var out uint64
	switch t.mode {
	case tableLogDistance:
		// Each lane's best mean RSSI belongs to the first of its
		// transmitters in rx's descending order, so one walk resolves every
		// lane: each draws (beating, fading, sigmoid) when the walk reaches
		// its strongest transmitter. NaN entries, ordered last, never win
		// the scalar `r > best`, so lanes left when the walk meets one —
		// or runs out — have no transmitter above -Inf and draw with -Inf.
		rssiRow := t.rssi[rx*n : (rx+1)*n]
		left := elig
		for _, tx := range t.order[rx*n : (rx+1)*n] {
			m := set.node[tx] & left
			if m == 0 {
				continue
			}
			r := rssiRow[tx]
			if r != r {
				break
			}
			left &^= m
			for ; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if t.drawLogDistance(set.count(l), r, rngs[l]) {
					out |= uint64(1) << l
				}
			}
			if left == 0 {
				break
			}
		}
		for ; left != 0; left &= left - 1 {
			l := bits.TrailingZeros64(left)
			if t.drawLogDistance(set.count(l), math.Inf(-1), rngs[l]) {
				out |= uint64(1) << l
			}
		}
	case tableBestPRR:
		// Lanes with a PRR-1 transmitter succeed with no draw (Draw(1));
		// lanes whose best link is uncertain draw once on it; lanes with
		// only PRR-0 links fail with no draw (Draw(0)) and never enter the
		// per-lane loop — on a hard unit disk the whole call is bitset
		// algebra.
		var sure, uncertain uint64
		for i, tx := range txs {
			if tx == rx {
				continue
			}
			if p := row[tx]; p >= 1 {
				sure |= txLanes[i]
			} else if p > 0 {
				uncertain |= txLanes[i]
			}
		}
		out = elig & sure
		for need := elig &^ sure & uncertain; need != 0; {
			l := bits.TrailingZeros64(need)
			bit := uint64(1) << l
			need &^= bit
			best := 0.0
			for i := range txs {
				if txLanes[i]&bit == 0 {
					continue
				}
				if p := row[txs[i]]; p > best {
					best = p
				}
			}
			// best < 1 here (no sure link in this lane), so this is exactly
			// Draw(best): no draw at 0, one Float64 otherwise.
			if best > 0 && rngs[l].Float64() < best {
				out |= bit
			}
		}
	default: // tableUnionPRR
		// A PRR-1 transmitter zeroes the miss product (union 1, no draw);
		// PRR-0 factors are exact ×1.0 identities and are skipped, which
		// leaves the remaining product folded in transmitter-list order —
		// bit-for-bit the scalar float sequence.
		var sure, uncertain uint64
		for i, tx := range txs {
			if tx == rx {
				continue
			}
			if p := row[tx]; p >= 1 {
				sure |= txLanes[i]
			} else if p > 0 {
				uncertain |= txLanes[i]
			}
		}
		out = elig & sure
		for need := elig &^ sure & uncertain; need != 0; {
			l := bits.TrailingZeros64(need)
			bit := uint64(1) << l
			need &^= bit
			miss := 1.0
			for i := range txs {
				if txLanes[i]&bit == 0 {
					continue
				}
				if p := row[txs[i]]; p > 0 && p < 1 {
					miss *= 1 - p
				}
			}
			// Replicate Draw's branches exactly: 1-miss can round to 1.0
			// (success without a draw) or, when every factor rounded to
			// 1.0, stay at 0 (failure without a draw).
			switch p := 1 - miss; {
			case p >= 1:
				out |= bit
			case p <= 0:
			default:
				if rngs[l].Float64() < p {
					out |= bit
				}
			}
		}
		// Lanes outside `uncertain` with no sure link hold only PRR-0
		// transmitters: Draw(0), failure, no randomness — already 0 in out.
	}
	return out
}
