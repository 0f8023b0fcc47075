package phy

import (
	"math"
	"math/rand"
)

// tableMode selects the draw semantics of a LinkTable: how a lone link
// and a set of concurrent same-packet transmitters turn into one reception
// draw. Each mode is one backend's link model.
type tableMode uint8

const (
	// tableLogDistance: best mean RSSI over the transmitters, one beating
	// draw, one fading draw, then the RSSI→PRR sigmoid (LogDistance).
	tableLogDistance tableMode = iota
	// tableBestPRR: a single Bernoulli draw on the best transmitter link
	// (UnitDisk — idealized CT, concurrency never hurts, never boosts).
	tableBestPRR
	// tableUnionPRR: a single Bernoulli draw on the union probability
	// 1 − Π(1 − PRRᵢ) of independent links (trace replay).
	tableUnionPRR
)

// LinkTable is an immutable, flat snapshot of a Radio's link model and
// the contract every backend implements: link statistics, reception draws
// and connectivity queries all run on it. It holds the n×n link matrices
// receiver-major (entry rx·n+tx), so a reception loop that fixes rx and
// scans a transmitter list walks one cache-resident row instead of chasing
// n row pointers, and its draw methods are direct calls with no interface
// dispatch and no error returns.
//
// The draws are exact: for the same *rand.Rand state they consume the same
// randomness in the same order and return the same outcomes as per-call
// oracles that compute each backend's draws from its own state (test-only,
// in this package and internal/trace). In the PRR-only modes (UnitDisk,
// trace replay) certain links (PRR exactly 0 or 1) consume no randomness;
// log-distance draws always run their fading draw.
//
// Tables are built once per Radio (backends cache them behind a
// sync.Once) and are safe for concurrent readers; indices must be valid
// node numbers — the hot path deliberately carries no range checks.
type LinkTable struct {
	n    int
	mode tableMode

	// rssi[rx*n+tx] is the mean received power at rx from tx in dBm
	// (tableLogDistance only; nil otherwise).
	rssi []float64
	// prr[rx*n+tx] is the long-run reception ratio of the link tx→rx,
	// with the diagonal forced to 0 (a node never receives itself).
	prr []float64
	// certain[rx*n+tx] reports prr exactly 0 or 1: a lone draw on the
	// link consumes no randomness.
	certain []bool

	// Frozen LogDistance draw parameters (tableLogDistance only).
	fadingSigmaDB  float64
	ctBeatingLoss  float64
	ctGainDB       float64
	sensitivityDBm float64
	prrMidpointDBm float64
	prrWidthDB     float64
	// log2[k] = math.Log2(k) for 0 <= k <= n: the CT gain per
	// transmitter count, tabulated once instead of recomputed per draw
	// (bitwise-identical — the table holds the function's own outputs).
	log2 []float64
}

// newLogDistanceTable snapshots the log-distance backend: the RSSI matrix
// (rssi[tx][rx], transposed into receiver-major order) plus the sigmoid
// and per-packet-draw parameters.
func newLogDistanceTable(params Params, rssi [][]float64) *LinkTable {
	n := len(rssi)
	t := &LinkTable{
		n:              n,
		mode:           tableLogDistance,
		rssi:           make([]float64, n*n),
		prr:            make([]float64, n*n),
		certain:        make([]bool, n*n),
		fadingSigmaDB:  params.FadingSigmaDB,
		ctBeatingLoss:  params.CTBeatingLoss,
		ctGainDB:       params.CTGainDB,
		sensitivityDBm: params.SensitivityDBm,
		prrMidpointDBm: params.PRRMidpointDBm,
		prrWidthDB:     params.PRRWidthDB,
	}
	for tx := 0; tx < n; tx++ {
		for rx := 0; rx < n; rx++ {
			i := rx*n + tx
			t.rssi[i] = rssi[tx][rx]
			t.prr[i] = t.prrFromRSSI(rssi[tx][rx])
			t.certain[i] = t.prr[i] <= 0 || t.prr[i] >= 1
		}
	}
	t.log2 = make([]float64, n+1)
	for k := 1; k <= n; k++ {
		t.log2[k] = math.Log2(float64(k))
	}
	return t
}

// prrTable builds a PRR-only table; prr is [tx][rx] and is transposed,
// with the diagonal forced to 0.
func prrTable(mode tableMode, prr [][]float64) *LinkTable {
	n := len(prr)
	t := &LinkTable{
		n:       n,
		mode:    mode,
		prr:     make([]float64, n*n),
		certain: make([]bool, n*n),
	}
	for tx := 0; tx < n; tx++ {
		for rx := 0; rx < n; rx++ {
			p := prr[tx][rx]
			if tx == rx {
				p = 0
			}
			i := rx*n + tx
			t.prr[i] = p
			t.certain[i] = p <= 0 || p >= 1
		}
	}
	return t
}

// BestPRRTable builds a table whose concurrent receptions draw once on
// the best transmitter link — the UnitDisk semantics. prr is indexed
// [tx][rx]; the diagonal is forced to 0.
func BestPRRTable(prr [][]float64) *LinkTable { return prrTable(tableBestPRR, prr) }

// UnionPRRTable builds a table whose concurrent receptions draw once on
// the union probability of independent links — the trace-replay
// semantics. prr is indexed [tx][rx]; the diagonal is forced to 0.
func UnionPRRTable(prr [][]float64) *LinkTable { return prrTable(tableUnionPRR, prr) }

// NumNodes returns the number of nodes in the snapshot.
func (t *LinkTable) NumNodes() int { return t.n }

// PRR returns the long-run reception ratio of the directed link tx→rx; a
// node never receives itself, so the diagonal is 0. Under log-distance it
// is the RSSI→PRR sigmoid of the mean RSSI (fading averaged out).
func (t *LinkTable) PRR(tx, rx int) float64 { return t.prr[rx*t.n+tx] }

// Certain reports whether the link tx→rx has PRR exactly 0 or 1, so a
// lone reception draw on it consumes no randomness.
func (t *LinkTable) Certain(tx, rx int) bool { return t.certain[rx*t.n+tx] }

func (t *LinkTable) prrFromRSSI(rssi float64) float64 {
	if rssi < t.sensitivityDBm {
		return 0
	}
	return 1 / (1 + math.Exp(-(rssi-t.prrMidpointDBm)/t.prrWidthDB))
}

// drawLogDistance is the log-distance reception draw for count concurrent
// transmitters whose strongest mean RSSI at the receiver is best: a beating
// draw (at >= 2 transmitters), a fading draw, then the RSSI→PRR sigmoid.
func (t *LinkTable) drawLogDistance(count int, best float64, rng *rand.Rand) bool {
	if count >= 2 && rng.Float64() < t.ctBeatingLoss {
		return false // beating corrupted the superposition
	}
	var log2Count float64
	if count < len(t.log2) {
		log2Count = t.log2[count]
	} else { // defensive: a caller-supplied list with duplicates
		log2Count = math.Log2(float64(count))
	}
	faded := best + rng.NormFloat64()*t.fadingSigmaDB + t.ctGainDB*log2Count
	return rng.Float64() < t.prrFromRSSI(faded)
}

// ReceiveSingle draws one reception attempt for a lone transmission
// tx→rx. Under log-distance it applies one per-packet fading draw to the
// mean RSSI, then draws on the sigmoid of the faded power (two draws even
// on the diagonal, whose RSSI is −Inf); the other modes draw once on the
// link PRR.
func (t *LinkTable) ReceiveSingle(tx, rx int, rng *rand.Rand) bool {
	i := rx*t.n + tx
	if t.mode != tableLogDistance {
		return Draw(t.prr[i], rng)
	}
	faded := t.rssi[i] + rng.NormFloat64()*t.fadingSigmaDB
	return rng.Float64() < t.prrFromRSSI(faded)
}

// ReceiveConcurrentFast draws one reception attempt at rx when every node
// in transmitters sends the same packet in the same synchronized slot —
// the Glossy/MiniCast situation; a transmitter in the set cannot receive.
// Log-distance credits the strongest mean link with CTGainDB per doubling
// of the transmitter count and applies one beating draw (at >= 2
// transmitters) and one fading draw, so the cost is independent of the
// set size; UnitDisk draws once on the best link; trace replay draws once
// on the union probability 1 − Π(1 − PRRᵢ).
func (t *LinkTable) ReceiveConcurrentFast(rx int, transmitters []int, rng *rand.Rand) bool {
	if len(transmitters) == 0 {
		return false
	}
	row := t.prr[rx*t.n : (rx+1)*t.n]
	switch t.mode {
	case tableLogDistance:
		rssiRow := t.rssi[rx*t.n : (rx+1)*t.n]
		best := math.Inf(-1)
		for _, tx := range transmitters {
			if tx == rx {
				return false // a transmitting node cannot receive in the same slot
			}
			if r := rssiRow[tx]; r > best {
				best = r
			}
		}
		return t.drawLogDistance(len(transmitters), best, rng)
	case tableBestPRR:
		best := 0.0
		for _, tx := range transmitters {
			if tx == rx {
				return false
			}
			if p := row[tx]; p > best {
				best = p
			}
		}
		return Draw(best, rng)
	default: // tableUnionPRR
		miss := 1.0
		for _, tx := range transmitters {
			if tx == rx {
				return false
			}
			miss *= 1 - row[tx]
		}
		return Draw(1-miss, rng)
	}
}

// HopDistancesInto fills dist (length NumNodes) with the minimum hop
// count from src to every node over links with PRR >= threshold;
// unreachable nodes get -1. It allocates nothing: the caller owns dist
// (typically arena-borrowed).
func (t *LinkTable) HopDistancesInto(dist []int, src int, threshold float64) {
	n := t.n
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	// Level-synchronous expansion: pass `level` promotes every unreached
	// node adjacent to a level-`level` node. Hop distances are unique, so
	// this matches a queue BFS.
	for level := 0; ; level++ {
		advanced := false
		for u := 0; u < n; u++ {
			if dist[u] != level {
				continue
			}
			for v := 0; v < n; v++ {
				if v == u || dist[v] >= 0 {
					continue
				}
				if t.prr[v*n+u] >= threshold {
					dist[v] = level + 1
					advanced = true
				}
			}
		}
		if !advanced {
			return
		}
	}
}

// HopDistances is HopDistancesInto with a freshly allocated result.
func (t *LinkTable) HopDistances(src int, threshold float64) []int {
	dist := make([]int, t.n)
	t.HopDistancesInto(dist, src, threshold)
	return dist
}

// Diameter returns the maximum finite hop distance between any pair over
// links with PRR >= threshold, and whether that graph is connected.
func (t *LinkTable) Diameter(threshold float64) (int, bool) {
	dist := make([]int, t.n)
	diameter, connected := 0, true
	for src := 0; src < t.n; src++ {
		t.HopDistancesInto(dist, src, threshold)
		for _, d := range dist {
			if d < 0 {
				connected = false
			} else if d > diameter {
				diameter = d
			}
		}
	}
	return diameter, connected
}
