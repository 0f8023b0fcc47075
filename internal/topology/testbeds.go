package topology

import "iotmpc/internal/phy"

// The two public testbeds the paper runs on. Exact node coordinates are not
// published, so the layouts below are synthetic reconstructions that match
// the properties that matter to CT protocols: node count, indoor office
// scale, and multi-hop depth (FlockLab floods complete in a few hops; D-Cube
// is larger and deeper).

// FlockLab returns the 26-node model of the FlockLab 2 testbed
// (ETH Zürich office building, nRF52840 targets). The layout spans two
// office wings and yields a network diameter of ~4 hops under the default
// PHY parameters.
func FlockLab() Topology {
	return Topology{
		Name: "flocklab",
		Positions: []phy.Position{
			// Wing A, room cluster around the initiator (node 0).
			{X: 0, Y: 0},
			{X: 28, Y: 6},
			{X: 12, Y: 24},
			{X: 35, Y: 30},
			{X: 5, Y: 45},
			{X: 42, Y: 12},
			{X: 55, Y: 35},
			{X: 30, Y: 52},
			{X: 60, Y: 8},
			// Corridor between wings.
			{X: 75, Y: 28},
			{X: 68, Y: 50},
			{X: 88, Y: 12},
			{X: 95, Y: 40},
			// Wing B.
			{X: 110, Y: 20},
			{X: 105, Y: 52},
			{X: 122, Y: 38},
			{X: 130, Y: 8},
			{X: 138, Y: 30},
			{X: 118, Y: 60},
			{X: 145, Y: 50},
			{X: 152, Y: 18},
			{X: 160, Y: 38},
			{X: 148, Y: 64},
			{X: 170, Y: 26},
			{X: 175, Y: 52},
			{X: 185, Y: 40},
		},
	}
}

// DCube returns the 45-node model of the TU Graz D-Cube testbed
// (nRF52840 boards across several office rooms/floors). The layout is larger
// and deeper than FlockLab, with a diameter of ~6 hops under the default PHY
// parameters.
func DCube() Topology {
	return Topology{
		Name: "dcube",
		Positions: []phy.Position{
			// Room cluster 1 (initiator).
			{X: 0, Y: 0},
			{X: 22, Y: 10},
			{X: 8, Y: 28},
			{X: 30, Y: 34},
			{X: 45, Y: 5},
			{X: 38, Y: 52},
			{X: 15, Y: 50},
			// Room cluster 2.
			{X: 62, Y: 22},
			{X: 58, Y: 48},
			{X: 78, Y: 8},
			{X: 82, Y: 38},
			{X: 70, Y: 62},
			{X: 95, Y: 20},
			{X: 92, Y: 55},
			// Corridor.
			{X: 110, Y: 35},
			{X: 105, Y: 8},
			{X: 118, Y: 62},
			{X: 128, Y: 18},
			{X: 125, Y: 45},
			// Room cluster 3.
			{X: 142, Y: 30},
			{X: 140, Y: 60},
			{X: 155, Y: 10},
			{X: 158, Y: 42},
			{X: 150, Y: 72},
			{X: 172, Y: 25},
			{X: 168, Y: 55},
			{X: 185, Y: 38},
			// Room cluster 4.
			{X: 192, Y: 10},
			{X: 198, Y: 55},
			{X: 205, Y: 28},
			{X: 212, Y: 68},
			{X: 220, Y: 15},
			{X: 218, Y: 45},
			{X: 232, Y: 32},
			{X: 228, Y: 62},
			// Room cluster 5 (far end).
			{X: 245, Y: 20},
			{X: 248, Y: 48},
			{X: 260, Y: 10},
			{X: 262, Y: 38},
			{X: 255, Y: 68},
			{X: 275, Y: 25},
			{X: 272, Y: 55},
			{X: 288, Y: 40},
			{X: 292, Y: 14},
			{X: 300, Y: 30},
		},
	}
}
