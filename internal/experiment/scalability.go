package experiment

import (
	"fmt"
	"strings"
)

// ScalabilitySweep runs both protocols on random-geometric deployments of
// increasing size (constant node density, so networks get deeper as they
// grow) with every node contributing a secret and degree n/3: the
// justification for calling S4 "Scalable Shamir Secret Sharing" — its
// advantage over S3 must grow with the network, since S3's chain is O(n²)
// at full-coverage NTX while S4's is O(n·k) at constant low NTX. It returns
// one Row per size; each cell's Scenario.Nodes is the size.
func ScalabilitySweep(sizes []int, iterations int, seed int64) ([]Row, error) {
	if iterations <= 0 || len(sizes) == 0 {
		return nil, fmt.Errorf("%w: %d iterations over %d sizes", ErrBadSpec, iterations, len(sizes))
	}
	cells := make([]Scenario, 0, 2*len(sizes))
	for _, n := range sizes {
		cells = appendProtocolPair(cells, Scenario{
			Nodes:      n,
			LossRate:   DefaultLossRate,
			NTXSharing: 6,
			DestSlack:  1,
			Iterations: iterations,
			Seed:       seed,
		})
	}
	return runPairs(cells)
}

// ScalabilityTable renders the study.
func ScalabilityTable(rows []Row) string {
	var b strings.Builder
	b.WriteString("Scalability — S3 vs S4 on growing random-geometric networks\n")
	fmt.Fprintf(&b, "%-7s %14s %14s %10s %10s\n",
		"nodes", "S3 (ms)", "S4 (ms)", "lat ratio", "radio ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %14.1f %14.1f %9.2fx %9.2fx\n",
			r.S3.Scenario.Nodes, r.S3.LatencyMS.Mean, r.S4.LatencyMS.Mean, r.LatencyRatio, r.RadioRatio)
	}
	return b.String()
}
