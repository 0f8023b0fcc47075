package phy

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzReceiveMaskMatchesScan pins ReceiveMask's RSSI-ordered walk on
// log-distance tables to the per-lane scan oracle (ReceiveMaskScan) and to
// ReceiveConcurrentFast on every lane's own transmitter set. The tables are
// built straight from an RSSI matrix with tied values, ±Inf and NaN, so the
// walk's tie, -Inf and NaN-stop paths all run; the candidate lists repeat
// nodes, include rx, and run past 64 entries, so lane counts reach 128 and
// more (eight counter planes); style bit 2 puts most links 4-12 dB below
// the sigmoid midpoint, where a large count's CT gain decides outcomes.
// Each prepared set serves several receivers, one of them outside the list,
// and then backs the next slot's set through Clear, as the protocol loops
// use it. After every call, each lane's next Uint64 must agree across the
// three streams: identical draws, not just identical outcomes.
func FuzzReceiveMaskMatchesScan(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(12), uint8(0))
	f.Add(int64(2), uint8(3), uint8(200), uint8(1)) // every entry in every lane: counts up to 200
	f.Add(int64(6), uint8(3), uint8(160), uint8(4|1))
	f.Add(int64(3), uint8(12), uint8(70), uint8(2))
	f.Add(int64(4), uint8(0), uint8(3), uint8(3))
	f.Add(int64(5), uint8(14), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, listLen, style uint8) {
		const lanes = MaxLanes
		n := 2 + int(nRaw)%15
		pick := rand.New(rand.NewSource(seed))
		palette := []float64{-80, -80, -93, -93, math.Inf(1), math.Inf(-1), math.NaN()}
		lo, span, special := -110.0, 40.0, 2
		if style&4 != 0 {
			lo, span, special = -105, 8, 8
		}
		rssi := make([][]float64, n)
		for tx := range rssi {
			rssi[tx] = make([]float64, n)
			for rx := range rssi[tx] {
				if pick.Intn(special) == 0 {
					rssi[tx][rx] = palette[pick.Intn(len(palette))]
				} else {
					rssi[tx][rx] = lo + span*pick.Float64()
				}
			}
		}
		table := newLogDistanceTable(DefaultParams(), rssi)

		// laneMask draws an entry's lanes in the fuzzed style: mixed, every
		// lane, one lane, or uniform random.
		laneMask := func() uint64 {
			switch style % 4 {
			case 1:
				return ^uint64(0)
			case 2:
				return 1 << pick.Intn(lanes)
			case 3:
				return pick.Uint64()
			}
			switch pick.Intn(3) {
			case 0:
				return ^uint64(0)
			case 1:
				return pick.Uint64() & pick.Uint64()
			}
			return pick.Uint64()
		}

		fast := make([]*rand.Rand, lanes)
		scan := make([]*rand.Rand, lanes)
		scalar := make([]*rand.Rand, lanes)
		for l := range fast {
			s := seed*131 + int64(l)
			fast[l] = rand.New(rand.NewSource(s))
			scan[l] = rand.New(rand.NewSource(s))
			scalar[l] = rand.New(rand.NewSource(s))
		}

		node := make([]uint64, n)
		var set TxSet
		laneSet := make([]int, 0, int(listLen))
		for slot := 0; slot < 4; slot++ {
			// quiet sends nothing this slot and is the first receiver; the
			// others may be in the list.
			quiet := pick.Intn(n)
			txs := make([]int, int(listLen))
			txLanes := make([]uint64, len(txs))
			for i := range txs {
				txs[i] = (quiet + 1 + pick.Intn(n-1)) % n
				txLanes[i] = laneMask()
			}
			set.Prepare(txs, txLanes, node)
			for k := 0; k < 3; k++ {
				rx := quiet
				if k > 0 {
					rx = pick.Intn(n)
				}
				active := pick.Uint64()
				if pick.Intn(3) == 0 {
					active = ^uint64(0)
				}
				got := table.ReceiveMask(rx, &set, active, fast)
				want := table.ReceiveMaskScan(rx, txs, txLanes, active, scan)
				if got != want {
					t.Fatalf("slot %d rx %d: mask %#x, scan oracle %#x", slot, rx, got, want)
				}
				for l := 0; l < lanes; l++ {
					bit := uint64(1) << l
					if active&bit != 0 {
						laneSet = laneSet[:0]
						for i, tx := range txs {
							if txLanes[i]&bit != 0 {
								laneSet = append(laneSet, tx)
							}
						}
						if table.ReceiveConcurrentFast(rx, laneSet, scalar[l]) != (got&bit != 0) {
							t.Fatalf("slot %d rx %d lane %d: mask and scalar disagree on %v", slot, rx, l, laneSet)
						}
					}
					a, b, c := fast[l].Uint64(), scan[l].Uint64(), scalar[l].Uint64()
					if a != b || a != c {
						t.Fatalf("slot %d rx %d lane %d: RNG streams diverged (%#x, scan %#x, scalar %#x)",
							slot, rx, l, a, b, c)
					}
				}
			}
			set.Clear()
			for i, m := range node {
				if m != 0 {
					t.Fatalf("slot %d: Clear left node %d's mask %#x", slot, i, m)
				}
			}
		}
	})
}
