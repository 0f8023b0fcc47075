package phy_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/trace"
)

// mixedTrace builds a link trace with an even blend of certain (PRR 0/1)
// and probabilistic entries, so union-mode draws exercise both the bitset
// fast path and the folded miss products.
func mixedTrace(n int) *trace.LinkTrace {
	tr := &trace.LinkTrace{Name: "mixed", Nodes: n, PRR: make([][]float64, n)}
	rng := rand.New(rand.NewSource(6))
	for i := range tr.PRR {
		tr.PRR[i] = make([]float64, n)
		for j := range tr.PRR[i] {
			if i == j {
				continue
			}
			switch rng.Intn(4) {
			case 0: // stays 0: certainly dead link
			case 1:
				tr.PRR[i][j] = 1 // certainly perfect link
			default:
				tr.PRR[i][j] = rng.Float64()
			}
		}
	}
	return tr
}

// laneTables builds one LinkTable per reception model: the log-distance
// channel (every draw probabilistic), gray-zone and hard unit disks (mixed
// and fully certain links), and a trace union table (certain PRR-0/1 entries
// interleaved with probabilistic union products).
func laneTables(t testing.TB) map[string]*phy.LinkTable {
	t.Helper()
	logdist, err := phy.NewLogDistance(phy.DefaultParams(), benchPositions(20), 5)
	if err != nil {
		t.Fatal(err)
	}
	gray, err := phy.NewUnitDisk(phy.DefaultParams(), benchPositions(20), 30, 25)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := phy.NewUnitDisk(phy.IdealParams(), benchPositions(20), 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := trace.NewChannel(phy.DefaultParams(), benchTrace(20))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := trace.NewChannel(phy.DefaultParams(), mixedTrace(20))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*phy.LinkTable{
		"logdist":       logdist.LinkTable(),
		"unitdisk-gray": gray.LinkTable(),
		"unitdisk-hard": hard.LinkTable(),
		"trace-union":   replay.LinkTable(),
		"trace-mixed":   mixed.LinkTable(),
	}
}

// laneMask draws a transmitter's lane mask: all lanes half the time, so
// lanes in which every candidate transmits are common, and random lanes
// otherwise.
func laneMask(pick *rand.Rand) uint64 {
	if pick.Intn(2) == 0 {
		return ^uint64(0)
	}
	return pick.Uint64()
}

// receiveMask prepares txs/txLanes as a fresh TxSet and draws at rx on it.
func receiveMask(table *phy.LinkTable, rx int, txs []int, txLanes []uint64, active uint64, rngs []*rand.Rand) uint64 {
	var set phy.TxSet
	set.Prepare(txs, txLanes, make([]uint64, table.NumNodes()))
	return table.ReceiveMask(rx, &set, active, rngs)
}

// TestReceiveConcurrentMaskMatchesScalar pins the bit-sliced kernel to its
// per-lane contract: bit l of the mask equals ReceiveConcurrentFast on lane
// l's transmitter subset, with identical RNG consumption on lane l's private
// stream — checked over thousands of random transmitter sets and lane masks
// (with rx itself and duplicated transmitters in some lists), then sealed
// with a follow-up draw on every lane.
func TestReceiveConcurrentMaskMatchesScalar(t *testing.T) {
	for name, table := range laneTables(t) {
		t.Run(name, func(t *testing.T) {
			const n, lanes = 20, 64
			scalarRNG := make([]*rand.Rand, lanes)
			laneRNG := make([]*rand.Rand, lanes)
			for l := range laneRNG {
				seed := int64(1000 + l)
				scalarRNG[l] = rand.New(rand.NewSource(seed))
				laneRNG[l] = rand.New(rand.NewSource(seed))
			}
			pick := rand.New(rand.NewSource(7))
			txs := make([]int, 0, n)
			txLanes := make([]uint64, 0, n)
			laneSet := make([]int, 0, n)
			for trial := 0; trial < 2000; trial++ {
				rx := pick.Intn(n)
				txs, txLanes = txs[:0], txLanes[:0]
				for node := 0; node < n; node++ {
					// rx joins some lists, so self lanes occur.
					if pick.Intn(n) < 3 || (node == rx && pick.Intn(8) == 0) {
						txs = append(txs, node)
						txLanes = append(txLanes, laneMask(pick))
					}
				}
				if len(txs) > 0 && pick.Intn(8) == 0 { // a duplicated transmitter
					i := pick.Intn(len(txs))
					txs = append(txs, txs[i])
					txLanes = append(txLanes, laneMask(pick))
				}
				active := pick.Uint64()
				got := receiveMask(table, rx, txs, txLanes, active, laneRNG)
				if got&^active != 0 {
					t.Fatalf("trial %d: mask %#x outside active %#x", trial, got, active)
				}
				for l := 0; l < lanes; l++ {
					bit := uint64(1) << l
					if active&bit == 0 {
						continue // inactive lanes draw nothing at all
					}
					laneSet = laneSet[:0]
					for i, tx := range txs {
						if txLanes[i]&bit != 0 {
							laneSet = append(laneSet, tx)
						}
					}
					want := table.ReceiveConcurrentFast(rx, laneSet, scalarRNG[l])
					if (got&bit != 0) != want {
						t.Fatalf("trial %d lane %d: rx=%d set=%v: mask %v, scalar %v",
							trial, l, rx, laneSet, got&bit != 0, want)
					}
				}
			}
			for l := 0; l < lanes; l++ {
				if scalarRNG[l].Int63() != laneRNG[l].Int63() {
					t.Fatalf("lane %d RNG stream diverged from its scalar twin", l)
				}
			}
		})
	}
}

// TestReceiveConcurrentMaskCertainZeroDraws: on a hard unit disk every link
// is certain, so a full sweep must resolve all 64 lanes with pure bitset
// algebra. The rngs slice is all nil — any draw would panic.
func TestReceiveConcurrentMaskCertainZeroDraws(t *testing.T) {
	u, err := phy.NewUnitDisk(phy.IdealParams(), benchPositions(16), 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := u.LinkTable()
	noDraws := make([]*rand.Rand, 64) // nil streams: drawing would panic
	check := rand.New(rand.NewSource(3))
	for rx := 0; rx < 16; rx++ {
		txs := []int{(rx + 1) % 16, (rx + 5) % 16, rx} // includes rx itself
		txLanes := []uint64{check.Uint64(), check.Uint64(), check.Uint64()}
		got := receiveMask(table, rx, txs, txLanes, ^uint64(0), noDraws)
		// Cross-check each lane against the scalar path (also draw-free).
		for l := 0; l < 64; l++ {
			bit := uint64(1) << l
			set := make([]int, 0, 3)
			for i, tx := range txs {
				if txLanes[i]&bit != 0 {
					set = append(set, tx)
				}
			}
			if want := table.ReceiveConcurrentFast(rx, set, nil); (got&bit != 0) != want {
				t.Fatalf("rx=%d lane %d: mask %v, scalar %v", rx, l, got&bit != 0, want)
			}
		}
	}
}

// FuzzReceiveConcurrentMask fuzzes ReceiveMask's structural invariants on
// a trace union table (the mode with the richest certain/uncertain mix):
//
//   - lane independence: relabeling the lanes (permuting which bit position
//     a trial world occupies, together with its RNG) permutes the result
//     mask identically — no lane's outcome depends on its neighbors; this
//     one is also checked on a log-distance table, whose lanes resolve
//     together in one RSSI-ordered walk;
//   - certain-only lanes burn zero RNG draws;
//   - a flood built on the kernel has monotone coverage: the per-node
//     coverage popcount never decreases across slots, and no inactive lane
//     ever receives.
func FuzzReceiveConcurrentMask(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(0x35), uint64(0xdeadbeef), uint64(1))
	f.Add(int64(9), uint8(0), uint16(0xffff), ^uint64(0), uint64(77))
	f.Fuzz(func(t *testing.T, seed int64, rxRaw uint8, txBits uint16, active uint64, rot uint64) {
		const n, lanes = 12, 64
		replay, err := trace.NewChannel(phy.DefaultParams(), mixedTrace(n))
		if err != nil {
			t.Fatal(err)
		}
		table := replay.LinkTable()
		logdist, err := phy.NewLogDistance(phy.DefaultParams(), benchPositions(n), seed)
		if err != nil {
			t.Fatal(err)
		}
		rx := int(rxRaw) % n
		pick := rand.New(rand.NewSource(seed))
		txs := make([]int, 0, n)
		txLanes := make([]uint64, 0, n)
		for node := 0; node < n; node++ {
			if txBits&(1<<node) != 0 {
				txs = append(txs, node)
				txLanes = append(txLanes, pick.Uint64())
			}
		}

		// Lane relabeling: rotate every lane mask by r bits and rotate the
		// RNG assignment the same way. The result must be the rotated mask.
		r := int(rot % lanes)
		baseRNG := make([]*rand.Rand, lanes)
		rotRNG := make([]*rand.Rand, lanes)
		for l := 0; l < lanes; l++ {
			baseRNG[l] = rand.New(rand.NewSource(seed + int64(l)))
			rotRNG[(l+r)%lanes] = rand.New(rand.NewSource(seed + int64(l)))
		}
		rotLanes := make([]uint64, len(txLanes))
		for i := range txLanes {
			rotLanes[i] = bits.RotateLeft64(txLanes[i], r)
		}
		for _, tb := range []*phy.LinkTable{table, logdist.LinkTable()} {
			base := receiveMask(tb, rx, txs, txLanes, active, baseRNG)
			rotated := receiveMask(tb, rx, txs, rotLanes, bits.RotateLeft64(active, r), rotRNG)
			if rotated != bits.RotateLeft64(base, r) {
				t.Fatalf("lane relabeling changed outcomes: base %#x, rotated %#x (r=%d)", base, rotated, r)
			}
			if base&^active != 0 {
				t.Fatalf("inactive lane received: mask %#x, active %#x", base, active)
			}
		}

		// Certain-only lanes burn zero draws: restrict every lane to
		// certain links (PRR 0 or 1) and hand the kernel nil RNGs.
		certLanes := make([]uint64, len(txs))
		for i, tx := range txs {
			if table.Certain(tx, rx) {
				certLanes[i] = txLanes[i]
			}
		}
		receiveMask(table, rx, txs, certLanes, active, make([]*rand.Rand, lanes))

		// Monotone coverage: flood rx-side coverage through repeated slots;
		// undecided lanes shrink, coverage popcount never decreases.
		if len(txs) == 0 {
			return
		}
		coverage := uint64(0)
		prev := 0
		floodRNG := make([]*rand.Rand, lanes)
		for l := range floodRNG {
			floodRNG[l] = rand.New(rand.NewSource(seed ^ int64(l*7919)))
		}
		// One set serves every slot, as a protocol loop's set serves every
		// receiver of its slot.
		var set phy.TxSet
		set.Prepare(txs, txLanes, make([]uint64, n))
		for slot := 0; slot < 8; slot++ {
			rcv := table.ReceiveMask(rx, &set, active&^coverage, floodRNG)
			if rcv&coverage != 0 {
				t.Fatalf("slot %d: already-covered lane received again", slot)
			}
			coverage |= rcv
			if pc := bits.OnesCount64(coverage); pc < prev {
				t.Fatalf("slot %d: coverage popcount fell from %d to %d", slot, prev, pc)
			} else {
				prev = pc
			}
		}
	})
}
