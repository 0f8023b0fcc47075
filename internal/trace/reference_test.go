package trace

import (
	"math/rand"

	"iotmpc/internal/phy"
)

// Test-only oracles: the per-call link queries and reception draws the
// trace backend implemented before the LinkTable became the Radio
// contract, kept as first written (minus the index checks) so the union
// table stays pinned to them draw for draw. They read the recorded matrix,
// never the table under test.

// refPRR is the recorded ratio of tx→rx; a node never receives itself.
func refPRR(c *Channel, tx, rx int) float64 {
	if tx == rx {
		return 0
	}
	return c.tr.PRR[tx][rx]
}

func refReceiveSingle(c *Channel, tx, rx int, rng *rand.Rand) bool {
	if tx == rx {
		return false
	}
	return phy.Draw(c.tr.PRR[tx][rx], rng)
}

// refReceiveConcurrentFast draws once on the union probability
// 1 − Π(1 − PRRᵢ), folded in transmitter-list order.
func refReceiveConcurrentFast(c *Channel, rx int, transmitters []int, rng *rand.Rand) bool {
	if len(transmitters) == 0 {
		return false
	}
	miss := 1.0
	for _, tx := range transmitters {
		if tx == rx {
			return false // a transmitting node cannot receive in the same slot
		}
		miss *= 1 - c.tr.PRR[tx][rx]
	}
	return phy.Draw(1-miss, rng)
}

// refHopDistances is the queue BFS over the recorded PRRs.
func refHopDistances(c *Channel, src int, threshold float64) []int {
	n := c.NumNodes()
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
			if v != u && dist[v] < 0 && refPRR(c, u, v) >= threshold {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// refDiameter is the maximum finite hop distance over all sources, and
// whether every node reaches every other.
func refDiameter(c *Channel, threshold float64) (int, bool) {
	diameter, connected := 0, true
	for src := 0; src < c.NumNodes(); src++ {
		for _, d := range refHopDistances(c, src, threshold) {
			if d < 0 {
				connected = false
			} else if d > diameter {
				diameter = d
			}
		}
	}
	return diameter, connected
}
