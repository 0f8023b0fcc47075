package phy_test

import (
	"math/rand"
	"slices"
	"testing"

	"iotmpc/internal/phy"
	"iotmpc/internal/topology"
	"iotmpc/internal/trace"
)

// Bit-sliced kernel benchmarks: every variant performs the same logical work
// — 64 independent trial receptions of one concurrent transmitter set — so
// ns/op is directly ns per 64 trials and the scalar/lanes ratio is the
// bit-slicing speedup. CI exports these to BENCH_bitslice.json and gates
// Lanes64 at >= 4x over Scalar on the unit-disk tables, where certain links
// let lane masks replace per-trial draws outright. The logdist and trace
// variants ride along ungated. Their lanes all share the whole list, which
// the protocol loops rarely do; the LogdistMixed pair below gives every
// lane its own subset, so it times the per-lane transmitter search against
// the scan oracle.

func benchLaneTable(b *testing.B, kind string, tb topology.Topology) *phy.LinkTable {
	b.Helper()
	switch kind {
	case "unitdisk":
		u, err := phy.NewUnitDisk(phy.IdealParams(), tb.Positions, 40, 0)
		if err != nil {
			b.Fatal(err)
		}
		return u.LinkTable()
	case "logdist":
		ch, err := phy.NewLogDistance(phy.DefaultParams(), tb.Positions, 1)
		if err != nil {
			b.Fatal(err)
		}
		return ch.LinkTable()
	case "trace":
		replay, err := trace.NewChannel(phy.DefaultParams(), mixedTrace(tb.NumNodes()))
		if err != nil {
			b.Fatal(err)
		}
		return replay.LinkTable()
	default:
		b.Fatalf("unknown table kind %q", kind)
		return nil
	}
}

func benchLaneRNGs(lanes int) []*rand.Rand {
	rngs := make([]*rand.Rand, lanes)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i + 1)))
	}
	return rngs
}

// benchMask runs 64 trials per iteration in groups of `lanes` kernel calls
// (lanes=1 is the scalar reference via ReceiveConcurrentFast).
func benchMask(b *testing.B, kind string, tb topology.Topology, lanes int) {
	table := benchLaneTable(b, kind, tb)
	n := tb.NumNodes()
	txs := []int{1, 2, 5, 9}
	txLanes := []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	var set phy.TxSet
	set.Prepare(txs, txLanes, make([]uint64, n))
	rngs := benchLaneRNGs(64)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx := i % n
		if lanes == 1 {
			for l := 0; l < 64; l++ {
				if table.ReceiveConcurrentFast(rx, txs, rngs[l]) {
					sink++
				}
			}
			continue
		}
		width := uint64(1)<<lanes - 1
		for g := 0; g < 64; g += lanes {
			sink += table.ReceiveMask(rx, &set, width, rngs[g:g+lanes])
		}
	}
	benchSink = sink
}

var benchSink uint64

func BenchmarkBitsliceScalarFlockLab(b *testing.B) { benchMask(b, "unitdisk", topology.FlockLab(), 1) }
func BenchmarkBitsliceLanes8FlockLab(b *testing.B) { benchMask(b, "unitdisk", topology.FlockLab(), 8) }
func BenchmarkBitsliceLanes64FlockLab(b *testing.B) {
	benchMask(b, "unitdisk", topology.FlockLab(), 64)
}

func BenchmarkBitsliceScalarDCube(b *testing.B)  { benchMask(b, "unitdisk", topology.DCube(), 1) }
func BenchmarkBitsliceLanes8DCube(b *testing.B)  { benchMask(b, "unitdisk", topology.DCube(), 8) }
func BenchmarkBitsliceLanes64DCube(b *testing.B) { benchMask(b, "unitdisk", topology.DCube(), 64) }

// Ungated worst/typical-case variants.

func BenchmarkBitsliceScalarLogdistFlockLab(b *testing.B) {
	benchMask(b, "logdist", topology.FlockLab(), 1)
}

func BenchmarkBitsliceLanes64LogdistFlockLab(b *testing.B) {
	benchMask(b, "logdist", topology.FlockLab(), 64)
}

func BenchmarkBitsliceScalarTraceFlockLab(b *testing.B) {
	benchMask(b, "trace", topology.FlockLab(), 1)
}

func BenchmarkBitsliceLanes64TraceFlockLab(b *testing.B) {
	benchMask(b, "trace", topology.FlockLab(), 64)
}

// benchLogdistMixed times one 64-lane reception on FlockLab's log-distance
// links with a transmitter subset per lane: 8 candidates (ascending, as the
// protocol loops list them) with seeded random lane masks, 16 such lists in
// rotation, and rx cycling over every node. The set is prepared and cleared
// once per op, as the loops do once per slot, so the op also pays the set-up
// every receiver of a slot shares. scan runs the per-lane scan oracle on
// the bare list instead. CI's "Log-distance lanes gate" holds the ratio.
func benchLogdistMixed(b *testing.B, scan bool) {
	tb := topology.FlockLab()
	table := benchLaneTable(b, "logdist", tb)
	n := tb.NumNodes()
	const lists, candidates = 16, 8
	pick := rand.New(rand.NewSource(24))
	txs := make([][]int, lists)
	txLanes := make([][]uint64, lists)
	for k := range txs {
		chosen := pick.Perm(n)[:candidates]
		slices.Sort(chosen)
		txs[k] = chosen
		for range chosen {
			txLanes[k] = append(txLanes[k], pick.Uint64())
		}
	}
	node := make([]uint64, n)
	var set phy.TxSet
	rngs := benchLaneRNGs(64)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, rx := i%lists, i%n
		if scan {
			sink += table.ReceiveMaskScan(rx, txs[k], txLanes[k], ^uint64(0), rngs)
			continue
		}
		set.Prepare(txs[k], txLanes[k], node)
		sink += table.ReceiveMask(rx, &set, ^uint64(0), rngs)
		set.Clear()
	}
	benchSink = sink
}

func BenchmarkBitsliceLogdistMixed(b *testing.B)     { benchLogdistMixed(b, false) }
func BenchmarkBitsliceLogdistMixedScan(b *testing.B) { benchLogdistMixed(b, true) }
