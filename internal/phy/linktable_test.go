package phy_test

import (
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
)

// The LinkTable contract is exactness: for the same RNG state, the table's
// draws must consume the same randomness in the same order and return the
// same outcomes as the per-call backend code they replaced, which lives on
// as the test-only oracles of reference_test.go. These tests drive paired
// RNGs through long interleaved call sequences and then compare both the
// outcomes and the RNG states (via a follow-up draw), so a single skipped
// or extra draw anywhere in the sequence fails.

// assertStaticMatches cross-checks PRR, Certain, hop distances and the
// diameter of the table against the oracle.
func assertStaticMatches(t *testing.T, ref phy.Reference, table *phy.LinkTable) {
	t.Helper()
	n := ref.NumNodes()
	if table.NumNodes() != n {
		t.Fatalf("table has %d nodes, radio %d", table.NumNodes(), n)
	}
	for tx := 0; tx < n; tx++ {
		for rx := 0; rx < n; rx++ {
			want := ref.PRR(tx, rx)
			if got := table.PRR(tx, rx); got != want {
				t.Fatalf("PRR(%d,%d): table %v, reference %v", tx, rx, got, want)
			}
			if got, want := table.Certain(tx, rx), want <= 0 || want >= 1; got != want {
				t.Fatalf("Certain(%d,%d) = %v, want %v", tx, rx, got, want)
			}
		}
	}
	for _, threshold := range []float64{0.3, 0.5, 0.9} {
		for src := 0; src < n; src += 3 {
			want := phy.ReferenceHopDistances(ref, src, threshold)
			got := table.HopDistances(src, threshold)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("HopDistances(src=%d, th=%.1f)[%d]: table %d, reference %d",
						src, threshold, i, got[i], want[i])
				}
			}
		}
		wantDiam, wantConn := phy.ReferenceDiameter(ref, threshold)
		if gotDiam, gotConn := table.Diameter(threshold); gotDiam != wantDiam || gotConn != wantConn {
			t.Fatalf("Diameter(th=%.1f): table %d/%v, reference %d/%v",
				threshold, gotDiam, gotConn, wantDiam, wantConn)
		}
	}
}

// assertDrawsMatch replays one op per script byte on paired RNG streams:
// a single draw when the byte is a multiple of 4, otherwise a concurrent
// draw on a transmitter set of size byte>>2 mod n+2, whose members are
// picked with repetition (so sets may hold rx itself and duplicates).
// Transmitters and receivers come from a separate picker seeded by seed.
func assertDrawsMatch(t *testing.T, ref phy.Reference, table *phy.LinkTable, seed int64, script []byte) {
	t.Helper()
	n := ref.NumNodes()
	direct := rand.New(rand.NewSource(seed))
	tabled := rand.New(rand.NewSource(seed))
	pick := rand.New(rand.NewSource(seed + 1))
	set := make([]int, 0, n+1)
	for op, b := range script {
		rx := pick.Intn(n)
		if b%4 == 0 {
			tx := pick.Intn(n)
			want := ref.ReceiveSingle(tx, rx, direct)
			if got := table.ReceiveSingle(tx, rx, tabled); got != want {
				t.Fatalf("op %d: single %d→%d: table %v, reference %v", op, tx, rx, got, want)
			}
			continue
		}
		set = set[:0]
		for k := int(b>>2) % (n + 2); k > 0; k-- {
			set = append(set, pick.Intn(n))
		}
		want := ref.ReceiveConcurrentFast(rx, set, direct)
		if got := table.ReceiveConcurrentFast(rx, set, tabled); got != want {
			t.Fatalf("op %d: rx=%d txers=%v: table %v, reference %v", op, rx, set, got, want)
		}
	}
	if direct.Int63() != tabled.Int63() {
		t.Fatal("RNG streams diverged: the table consumed different randomness than the reference")
	}
}

// assertTableMatchesRadio checks a backend's cached table against its
// oracle over 4000 interleaved single and concurrent draws.
func assertTableMatchesRadio(t *testing.T, r phy.Radio) {
	t.Helper()
	table := r.LinkTable()
	if r.LinkTable() != table {
		t.Fatal("LinkTable not cached: second call returned a different snapshot")
	}
	ref := phy.ReferenceOf(r)
	assertStaticMatches(t, ref, table)
	script := make([]byte, 4000)
	rand.New(rand.NewSource(7)).Read(script)
	assertDrawsMatch(t, ref, table, 42, script)
}

func TestLinkTableMatchesLogDistance(t *testing.T) {
	ch, err := phy.NewLogDistance(phy.DefaultParams(), benchPositions(20), 5)
	if err != nil {
		t.Fatal(err)
	}
	assertTableMatchesRadio(t, ch)
}

func TestLinkTableMatchesUnitDisk(t *testing.T) {
	// The gray zone makes some links probabilistic (draws consume
	// randomness) while others stay certain (draws must not) — both paths
	// have to agree with the geometry-computing original.
	hard, err := phy.NewUnitDisk(phy.IdealParams(), benchPositions(20), 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertTableMatchesRadio(t, hard)

	gray, err := phy.NewUnitDisk(phy.DefaultParams(), benchPositions(20), 30, 25)
	if err != nil {
		t.Fatal(err)
	}
	assertTableMatchesRadio(t, gray)
}

// FuzzLinkTableMatchesReference holds the table to its oracle on random
// deployments of 2–32 nodes under log-distance, a hard unit disk and a
// gray-zone unit disk, with the script deciding the interleaving of single
// and concurrent draws. Explore with
// go test -fuzz=FuzzLinkTableMatchesReference ./internal/phy.
func FuzzLinkTableMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), []byte{0, 1, 4, 9, 255, 128})
	f.Add(int64(2), uint8(30), uint8(1), []byte{8, 12, 0, 0, 77, 3})
	f.Add(int64(3), uint8(11), uint8(2), []byte{2, 6, 100, 0, 250})
	f.Add(int64(-4), uint8(200), uint8(0), []byte("interleaved single and concurrent draws"))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, backend uint8, script []byte) {
		n := 2 + int(nRaw)%31
		rng := rand.New(rand.NewSource(seed))
		pos := make([]phy.Position, n)
		for i := range pos {
			pos[i] = phy.Position{X: rng.Float64() * 100, Y: rng.Float64() * 80}
		}
		var (
			r   phy.Radio
			err error
		)
		switch backend % 3 {
		case 0:
			r, err = phy.NewLogDistance(phy.DefaultParams(), pos, seed)
		case 1:
			r, err = phy.NewUnitDisk(phy.IdealParams(), pos, 30, 0)
		default:
			r, err = phy.NewUnitDisk(phy.DefaultParams(), pos, 25, 20)
		}
		if err != nil {
			t.Fatal(err)
		}
		ref := phy.ReferenceOf(r)
		assertStaticMatches(t, ref, r.LinkTable())
		assertDrawsMatch(t, ref, r.LinkTable(), seed, script)
	})
}

func TestLinkTableCertainDrawsConsumeNoRandomness(t *testing.T) {
	// Hard unit disk: every link PRR is 0 or 1, so a full sweep of draws
	// must leave the RNG untouched.
	u, err := phy.NewUnitDisk(phy.IdealParams(), benchPositions(16), 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := u.LinkTable()
	rng := rand.New(rand.NewSource(9))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(9))
	for rx := 0; rx < 16; rx++ {
		table.ReceiveConcurrentFast(rx, []int{(rx + 1) % 16, (rx + 2) % 16}, rng)
		table.ReceiveSingle((rx+3)%16, rx, rng)
	}
	if rng.Int63() != before {
		t.Fatal("certain draws consumed randomness")
	}
}
