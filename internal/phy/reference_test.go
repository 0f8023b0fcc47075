package phy

import (
	"fmt"
	"math"
	"math/rand"
)

// Test-only oracles: the per-call link queries and reception draws that
// LogDistance and UnitDisk implemented before the LinkTable became the
// Radio contract, kept as first written (minus the index checks) so the
// tables stay pinned to them draw for draw. They read the backends' own
// state (rssi, positions), never the table under test. They are exported
// only to this package's tests, so the external phy_test equivalence tests
// and the fuzz harness can drive them.

// Reference is one backend's oracle.
type Reference interface {
	NumNodes() int
	// PRR is the long-run reception ratio of the directed link tx→rx.
	PRR(tx, rx int) float64
	// ReceiveSingle draws one reception attempt for a lone transmission.
	ReceiveSingle(tx, rx int, rng *rand.Rand) bool
	// ReceiveConcurrentFast draws one reception attempt at rx for
	// synchronized same-packet transmitters.
	ReceiveConcurrentFast(rx int, transmitters []int, rng *rand.Rand) bool
}

// ReferenceOf returns the oracle of a LogDistance or UnitDisk backend.
func ReferenceOf(r Radio) Reference {
	switch b := r.(type) {
	case *LogDistance:
		return logDistanceRef{b}
	case *UnitDisk:
		return unitDiskRef{b}
	default:
		panic(fmt.Sprintf("phy: no reference for %T", r))
	}
}

type logDistanceRef struct{ c *LogDistance }

func (r logDistanceRef) NumNodes() int { return r.c.NumNodes() }

func (r logDistanceRef) prrFromRSSI(rssi float64) float64 {
	if rssi < r.c.params.SensitivityDBm {
		return 0
	}
	return 1 / (1 + math.Exp(-(rssi-r.c.params.PRRMidpointDBm)/r.c.params.PRRWidthDB))
}

func (r logDistanceRef) PRR(tx, rx int) float64 { return r.prrFromRSSI(r.c.rssi[tx][rx]) }

func (r logDistanceRef) ReceiveSingle(tx, rx int, rng *rand.Rand) bool {
	faded := r.c.rssi[tx][rx] + rng.NormFloat64()*r.c.params.FadingSigmaDB
	return rng.Float64() < r.prrFromRSSI(faded)
}

// ReceiveConcurrentFast applies one fading draw to the strongest mean link
// plus CTGainDB per doubling of the transmitter count, after a beating draw
// at two or more transmitters.
func (r logDistanceRef) ReceiveConcurrentFast(rx int, transmitters []int, rng *rand.Rand) bool {
	if len(transmitters) == 0 {
		return false
	}
	best := math.Inf(-1)
	for _, tx := range transmitters {
		if tx == rx {
			return false
		}
		if v := r.c.rssi[tx][rx]; v > best {
			best = v
		}
	}
	if len(transmitters) >= 2 && rng.Float64() < r.c.params.CTBeatingLoss {
		return false // beating corrupted the superposition
	}
	faded := best + rng.NormFloat64()*r.c.params.FadingSigmaDB +
		r.c.params.CTGainDB*math.Log2(float64(len(transmitters)))
	return rng.Float64() < r.prrFromRSSI(faded)
}

type unitDiskRef struct{ u *UnitDisk }

func (r unitDiskRef) NumNodes() int { return r.u.NumNodes() }

func (r unitDiskRef) PRR(tx, rx int) float64 { return r.u.prr(tx, rx) }

func (r unitDiskRef) ReceiveSingle(tx, rx int, rng *rand.Rand) bool {
	return Draw(r.PRR(tx, rx), rng)
}

// ReceiveConcurrentFast succeeds iff the best incoming link does.
func (r unitDiskRef) ReceiveConcurrentFast(rx int, transmitters []int, rng *rand.Rand) bool {
	if len(transmitters) == 0 {
		return false
	}
	best := 0.0
	for _, tx := range transmitters {
		if tx == rx {
			return false
		}
		if p := r.PRR(tx, rx); p > best {
			best = p
		}
	}
	return Draw(best, rng)
}

// ReferenceHopDistances is the queue BFS over the oracle's PRRs: the
// minimum hop count from src over links with PRR >= threshold, -1 where
// unreachable.
func ReferenceHopDistances(ref Reference, src int, threshold float64) []int {
	n := ref.NumNodes()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < n; v++ {
			if v != u && dist[v] < 0 && ref.PRR(u, v) >= threshold {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ReferenceDiameter is the maximum finite hop distance over all sources,
// and whether every node reaches every other.
func ReferenceDiameter(ref Reference, threshold float64) (int, bool) {
	diameter, connected := 0, true
	for src := 0; src < ref.NumNodes(); src++ {
		for _, d := range ReferenceHopDistances(ref, src, threshold) {
			if d < 0 {
				connected = false
			} else if d > diameter {
				diameter = d
			}
		}
	}
	return diameter, connected
}
