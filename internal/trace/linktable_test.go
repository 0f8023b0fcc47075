package trace

import (
	"math/rand"
	"testing"

	"iotmpc/internal/phy"
)

// TestLinkTableMatchesTraceChannel pins the third backend's table to the
// oracles of reference_test.go: identical PRRs, hop distances and
// diameters, and identical single and union-probability draws on
// identical RNG streams (the union product folds links in
// transmitter-list order, so even the floating-point rounding must
// agree), with the streams still aligned at the end.
func TestLinkTableMatchesTraceChannel(t *testing.T) {
	tr, err := Bundled("testbed10")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(phy.DefaultParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	n := ch.NumNodes()
	table := ch.LinkTable()
	if table.NumNodes() != n {
		t.Fatalf("table has %d nodes, trace %d", table.NumNodes(), n)
	}
	if ch.LinkTable() != table {
		t.Fatal("LinkTable not cached: second call returned a different snapshot")
	}
	for tx := 0; tx < n; tx++ {
		for rx := 0; rx < n; rx++ {
			if got, want := table.PRR(tx, rx), refPRR(ch, tx, rx); got != want {
				t.Fatalf("PRR(%d,%d): table %v, reference %v", tx, rx, got, want)
			}
		}
	}
	for _, threshold := range []float64{0.3, 0.5, 0.9} {
		for src := 0; src < n; src++ {
			want := refHopDistances(ch, src, threshold)
			got := table.HopDistances(src, threshold)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("HopDistances(src=%d, th=%.1f)[%d]: table %d, reference %d",
						src, threshold, i, got[i], want[i])
				}
			}
		}
		wantDiam, wantConn := refDiameter(ch, threshold)
		if gotDiam, gotConn := table.Diameter(threshold); gotDiam != wantDiam || gotConn != wantConn {
			t.Fatalf("Diameter(th=%.1f): table %d/%v, reference %d/%v",
				threshold, gotDiam, gotConn, wantDiam, wantConn)
		}
	}

	// Interleaved single and concurrent draws; sets may contain the
	// receiver and duplicates.
	direct := rand.New(rand.NewSource(11))
	tabled := rand.New(rand.NewSource(11))
	pick := rand.New(rand.NewSource(3))
	set := make([]int, 0, n+1)
	for trial := 0; trial < 4000; trial++ {
		rx := pick.Intn(n)
		if trial%3 == 0 {
			tx := pick.Intn(n)
			if got, want := table.ReceiveSingle(tx, rx, tabled), refReceiveSingle(ch, tx, rx, direct); got != want {
				t.Fatalf("trial %d: single %d→%d: table %v, reference %v", trial, tx, rx, got, want)
			}
			continue
		}
		set = set[:0]
		for k := pick.Intn(n + 2); k > 0; k-- {
			set = append(set, pick.Intn(n))
		}
		want := refReceiveConcurrentFast(ch, rx, set, direct)
		if got := table.ReceiveConcurrentFast(rx, set, tabled); got != want {
			t.Fatalf("trial %d: rx=%d txers=%v: table %v, reference %v", trial, rx, set, got, want)
		}
	}
	if direct.Int63() != tabled.Int63() {
		t.Fatal("RNG streams diverged: the table consumed different randomness than the trace replay")
	}
}
