package phy

import (
	"math"
	"math/bits"
	"math/rand"
)

// ReceiveMaskScan is the test-only scan oracle of ReceiveMask: the lane
// kernel ReceiveMask replaced, kept as it was. It classifies the lanes from
// the list on every call, and on log-distance tables each eligible lane
// scans the whole transmitter list for its count and best RSSI (lanes in
// which every candidate transmits share one scan). It takes the bare list
// — txs[i] transmits in the lanes of txLanes[i] — and obeys the same
// per-lane contract, so ReceiveMask must match it mask for mask and draw
// for draw. It is exported only to this package's tests.
func (t *LinkTable) ReceiveMaskScan(rx int, txs []int, txLanes []uint64, active uint64, rngs []*rand.Rand) uint64 {
	if active == 0 || len(txs) == 0 {
		return 0
	}
	n := t.n
	row := t.prr[rx*n : (rx+1)*n]

	// One pass over the candidate list classifies every lane: `self` lanes
	// include rx among their transmitters (scalar: immediate false, no
	// draws), `any` lanes have at least one transmitter.
	var self, any uint64
	for i, tx := range txs {
		if tx == rx {
			self |= txLanes[i]
		} else {
			any |= txLanes[i]
		}
	}
	elig := active & any &^ self
	if elig == 0 {
		return 0
	}

	var out uint64
	switch t.mode {
	case tableLogDistance:
		// Every eligible lane draws (beating only at >= 2 transmitters,
		// then fading, then the sigmoid), so the lanes are walked one by
		// one. Lanes in which every candidate transmits share one
		// transmitter set — the whole list — whose count and best RSSI are
		// computed once; the other lanes scan the list as the scalar loop
		// does.
		rssiRow := t.rssi[rx*n : (rx+1)*n]
		shared := elig
		for _, m := range txLanes {
			shared &= m
		}
		sharedBest := math.Inf(-1)
		if shared != 0 { // rx is not in the list: its lanes are not eligible
			for _, tx := range txs {
				if r := rssiRow[tx]; r > sharedBest {
					sharedBest = r
				}
			}
		}
		for need := elig; need != 0; {
			l := bits.TrailingZeros64(need)
			bit := uint64(1) << l
			need &^= bit
			count, best := len(txs), sharedBest
			if shared&bit == 0 {
				count, best = 0, math.Inf(-1)
				for i := range txs {
					// rx itself cannot carry this bit: self lanes are not
					// eligible.
					if txLanes[i]&bit == 0 {
						continue
					}
					count++
					if r := rssiRow[txs[i]]; r > best {
						best = r
					}
				}
			}
			if t.drawLogDistance(count, best, rngs[l]) {
				out |= bit
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
