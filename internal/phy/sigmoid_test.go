package phy

import (
	"math"
	"math/rand"
	"testing"
)

// The bracketed sigmoid must decide every comparison exactly as the
// sigmoid itself: sigmoidDraw(u, x) == (u < prrFromRSSI(x)) for every
// uniform draw u (in [0, 1), never negative) and every faded power x,
// including the float neighbours of each grid edge, the sensitivity floor,
// powers past the grid top and non-finite powers. Params are user-settable,
// so the grid is checked under several sigmoid shapes, not only the
// default.

// sigmoidParams are valid parameterizations with different grid shapes.
func sigmoidParams() map[string]Params {
	narrow := DefaultParams()
	narrow.SensitivityDBm, narrow.PRRMidpointDBm, narrow.PRRWidthDB = -98, -95, 0.4
	wide := DefaultParams()
	wide.SensitivityDBm, wide.PRRMidpointDBm, wide.PRRWidthDB = -110.3, -85, 9
	// A floor above the midpoint: the grid starts well up the sigmoid.
	high := DefaultParams()
	high.SensitivityDBm, high.PRRMidpointDBm, high.PRRWidthDB = -90, -93, 1.5
	return map[string]Params{"default": DefaultParams(), "narrow": narrow, "wide": wide, "floor-above-midpoint": high}
}

func sigmoidTable(t testing.TB, p Params) *LinkTable {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	table := newLogDistanceTable(p, [][]float64{{math.Inf(-1)}})
	if len(table.sigmoid) == 0 {
		t.Fatalf("empty sigmoid grid for %+v", p)
	}
	return table
}

// ulps returns v and its float neighbours one ulp either side.
func ulps(v float64) []float64 {
	return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
}

// checkSigmoidDraw compares the bracketed draw with the exact comparison
// for u and x.
func checkSigmoidDraw(t *testing.T, table *LinkTable, u, x float64) {
	t.Helper()
	if got, want := table.sigmoidDraw(u, x), u < table.prrFromRSSI(x); got != want {
		t.Fatalf("sigmoidDraw(u=%v, x=%v) = %v, exact %v (prr %v)", u, x, got, want, table.prrFromRSSI(x))
	}
}

// checkAroundPRR checks x against u exactly at the PRR of x, at the
// bounds of the cells at and beside x, and one ulp either side of each.
func checkAroundPRR(t *testing.T, table *LinkTable, x float64) {
	t.Helper()
	pivots := []float64{0, table.prrFromRSSI(x), 0.5}
	if i := (x - table.sensitivityDBm) / sigmoidStep; i >= 0 && i < float64(len(table.sigmoid)+1) {
		for j := int(i) - 1; j <= int(i)+1; j++ {
			if j >= 0 && j < len(table.sigmoid) {
				pivots = append(pivots, table.sigmoid[j].lo, table.sigmoid[j].hi)
			}
		}
	}
	for _, p := range pivots {
		for _, u := range ulps(p) {
			if u >= 0 && u < 1 {
				checkSigmoidDraw(t, table, u, x)
			}
		}
	}
}

func TestSigmoidBracketGridEdges(t *testing.T) {
	for name, p := range sigmoidParams() {
		t.Run(name, func(t *testing.T) {
			table := sigmoidTable(t, p)
			for i, c := range table.sigmoid {
				x0 := table.sigmoidEdge(i)
				if !(x0 < table.sigmoidEdge(i+1)) {
					t.Fatalf("cell %d [%v, %v) is empty", i, x0, table.sigmoidEdge(i+1))
				}
				for _, x := range ulps(x0) {
					// The u bounds of a cell and its neighbours only meet
					// its own edges, so pivot on this cell's bounds too.
					for _, u := range append(ulps(c.lo), ulps(c.hi)...) {
						if u >= 0 && u < 1 {
							checkSigmoidDraw(t, table, u, x)
						}
					}
					checkAroundPRR(t, table, x)
				}
			}
			top := table.sigmoidEdge(len(table.sigmoid))
			for _, x := range ulps(top) {
				checkAroundPRR(t, table, x)
			}
		})
	}
}

func TestSigmoidBracketCutoffAndOffGrid(t *testing.T) {
	for name, p := range sigmoidParams() {
		t.Run(name, func(t *testing.T) {
			table := sigmoidTable(t, p)
			top := table.sigmoidEdge(len(table.sigmoid))
			xs := append(ulps(p.SensitivityDBm), top+1, top+1e3, 1e300,
				math.Inf(1), math.Inf(-1), math.NaN(), -1e300, p.SensitivityDBm-1)
			us := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.25, 0.5, math.Nextafter(1, 0)}
			for _, x := range xs {
				for _, u := range us {
					checkSigmoidDraw(t, table, u, x)
				}
				checkAroundPRR(t, table, x)
			}
			// Below the floor the PRR is exactly 0: no u succeeds.
			below := math.Nextafter(p.SensitivityDBm, math.Inf(-1))
			if table.sigmoidDraw(0, below) {
				t.Fatal("a draw one ulp below the sensitivity floor succeeded")
			}
		})
	}
}

// TestSigmoidGridDegenerateParams pins the degenerate grids, which
// Validate does not all reject: a NaN or negative width (a decreasing
// sigmoid) leaves no grid, so every draw is exact; an infinite width caps
// it.
func TestSigmoidGridDegenerateParams(t *testing.T) {
	for _, width := range []float64{math.NaN(), -2.5} {
		p := DefaultParams()
		p.PRRWidthDB = width
		table := newLogDistanceTable(p, [][]float64{{0}})
		if len(table.sigmoid) != 0 {
			t.Fatalf("width %v built %d cells", width, len(table.sigmoid))
		}
		for _, x := range []float64{-100, -93, -50} {
			checkSigmoidDraw(t, table, 0.5, x)
		}
	}
	inf := DefaultParams()
	inf.PRRWidthDB = math.Inf(1)
	table := newLogDistanceTable(inf, [][]float64{{0}})
	if len(table.sigmoid) != sigmoidMaxCells {
		t.Fatalf("infinite width built %d cells, want the %d cap", len(table.sigmoid), sigmoidMaxCells)
	}
	for _, x := range []float64{-100, -50, 1e9, math.NaN()} {
		for _, u := range []float64{0, 0.5, math.Nextafter(0.5, 1)} {
			checkSigmoidDraw(t, table, u, x)
		}
	}
}

// FuzzSigmoidBracket holds sigmoidDraw to the exact comparison for
// arbitrary (u, x) under every parameterization of sigmoidParams: once as
// given, once with x folded onto the grid, and once with u pinned to the
// PRR of that on-grid power and its neighbours. Explore with
// go test -fuzz=FuzzSigmoidBracket ./internal/phy.
func FuzzSigmoidBracket(f *testing.F) {
	f.Add(0.5, -93.0)
	f.Add(0.0, -100.0)
	f.Add(0.999, -92.96875)
	f.Add(0.0571, -99.9999)
	f.Add(1e-300, 7.0)
	f.Add(0.25, math.Inf(1))
	f.Add(0.75, math.NaN())
	tables := map[string]*LinkTable{}
	for name, p := range sigmoidParams() {
		tables[name] = sigmoidTable(f, p)
	}
	f.Fuzz(func(t *testing.T, u, x float64) {
		u = math.Abs(u) // a uniform draw is never negative
		for _, table := range tables {
			checkSigmoidDraw(t, table, u, x)
			lo, hi := table.sigmoidEdge(0), table.sigmoidEdge(len(table.sigmoid))
			onGrid := lo + math.Mod(math.Abs(x), hi-lo+2) - 1
			checkSigmoidDraw(t, table, u, onGrid)
			for _, v := range ulps(table.prrFromRSSI(onGrid)) {
				if v >= 0 {
					checkSigmoidDraw(t, table, v, onGrid)
				}
			}
		}
	})
}

// benchSigmoid times the last step of a log-distance reception draw, the
// comparison of a uniform draw with the sigmoid at a faded power, over
// powers faded around the links of a 26-node, 100×80 m deployment whose
// mean RSSI reaches the sigmoid — on the bracketed grid, or on the exact
// sigmoid of the reference_test.go oracle. CI's log-distance draw gate
// reads the ratio.
func benchSigmoid(b *testing.B, exact bool) {
	rng := rand.New(rand.NewSource(5))
	pos := make([]Position, 26)
	for i := range pos {
		pos[i] = Position{X: rng.Float64() * 100, Y: rng.Float64() * 80}
	}
	ch, err := NewLogDistance(DefaultParams(), pos, 1)
	if err != nil {
		b.Fatal(err)
	}
	table, ref := ch.LinkTable(), logDistanceRef{ch}
	const draws = 1 << 12
	var us, xs []float64
	for len(xs) < draws {
		tx, rx := rng.Intn(table.n), rng.Intn(table.n)
		if table.Certain(tx, rx) {
			continue
		}
		us = append(us, rng.Float64())
		xs = append(xs, ch.rssi[tx][rx]+rng.NormFloat64()*ch.params.FadingSigmaDB)
	}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % draws
		var ok bool
		if exact {
			ok = us[j] < ref.prrFromRSSI(xs[j])
		} else {
			ok = table.sigmoidDraw(us[j], xs[j])
		}
		if ok {
			sink++
		}
	}
	benchSigmoidSink = sink
}

var benchSigmoidSink int

func BenchmarkSigmoidDraw(b *testing.B)          { benchSigmoid(b, false) }
func BenchmarkSigmoidDrawReference(b *testing.B) { benchSigmoid(b, true) }
