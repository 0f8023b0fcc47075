// Package collect implements convergecast: tree-based, unicast,
// ACK-and-retransmit data collection toward a sink — the classic transport
// that HE-based PPDA schemes ride on (each node forwards one
// constant-size homomorphic ciphertext to its parent, aggregating in the
// network). It is the communication counterpart of internal/paillier in the
// repository's HE baseline, and the architectural foil to the CT protocols:
// unicast trees keep radios off most of the time but pay per-hop
// serialization, retries, and routing state.
package collect

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"iotmpc/internal/field"
	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
)

// Errors returned by the package.
var (
	// ErrBadConfig is returned for invalid configuration.
	ErrBadConfig = errors.New("collect: invalid configuration")
	// ErrDisconnected is returned when some node has no route to the sink.
	ErrDisconnected = errors.New("collect: node unreachable from sink")
)

// Tree is a routing tree rooted at the sink.
type Tree struct {
	// Sink is the root node.
	Sink int
	// Parent[i] is node i's next hop toward the sink (-1 for the sink).
	Parent []int
	// Depth[i] is the hop distance to the sink.
	Depth []int
}

// BuildTree constructs a shortest-path tree over links with PRR >= threshold,
// breaking ties by link quality (each node picks the best-PRR parent among
// minimal-depth neighbors).
func BuildTree(ch phy.Radio, sink int, threshold float64) (*Tree, error) {
	n := ch.NumNodes()
	if sink < 0 || sink >= n {
		return nil, fmt.Errorf("%w: sink %d", ErrBadConfig, sink)
	}
	// The whole tree derives from link statistics, so it runs on the flat
	// link-table snapshot: one O(n²) scan of precomputed PRRs instead of
	// per-pair interface queries.
	table := ch.LinkTable()
	dist := table.HopDistances(sink, threshold)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	for node := 0; node < n; node++ {
		if node == sink {
			continue
		}
		if dist[node] < 0 {
			return nil, fmt.Errorf("%w: node %d", ErrDisconnected, node)
		}
		bestPRR := -1.0
		for cand := 0; cand < n; cand++ {
			if cand == node || dist[cand] != dist[node]-1 {
				continue
			}
			if prr := table.PRR(node, cand); prr >= threshold && prr > bestPRR {
				bestPRR = prr
				parent[node] = cand
			}
		}
		if parent[node] < 0 {
			return nil, fmt.Errorf("%w: node %d has no parent", ErrDisconnected, node)
		}
	}
	return &Tree{Sink: sink, Parent: parent, Depth: dist}, nil
}

// Config parameterizes one convergecast round.
type Config struct {
	// Channel is the radio backend (any phy.Radio implementation).
	Channel phy.Radio
	// Tree is the routing tree (BuildTree).
	Tree *Tree
	// MessageBytes is the size of each node's upward message (e.g. one
	// Paillier ciphertext); messages larger than a frame are fragmented.
	MessageBytes int
	// MaxRetries bounds per-frame retransmissions (default 8).
	MaxRetries int
	// Participants marks nodes that send; nil means every non-sink node.
	// Non-participants still relay their children's aggregates.
	Participants []bool
}

// frameCapacity is the usable payload per 802.15.4 frame after the
// fragmentation/routing header.
const frameHeaderBytes = 11

func (c Config) validate() error {
	switch {
	case c.Channel == nil:
		return fmt.Errorf("%w: nil channel", ErrBadConfig)
	case c.Tree == nil:
		return fmt.Errorf("%w: nil tree", ErrBadConfig)
	case len(c.Tree.Parent) != c.Channel.NumNodes() || len(c.Tree.Depth) != len(c.Tree.Parent):
		return fmt.Errorf("%w: tree size mismatch", ErrBadConfig)
	case c.MessageBytes <= 0:
		return fmt.Errorf("%w: message bytes %d", ErrBadConfig, c.MessageBytes)
	case c.MaxRetries < 0:
		return fmt.Errorf("%w: retries %d", ErrBadConfig, c.MaxRetries)
	case c.Participants != nil && len(c.Participants) != c.Channel.NumNodes():
		return fmt.Errorf("%w: participants size mismatch", ErrBadConfig)
	}
	return c.Tree.validate()
}

// validate checks that the tree is rooted at an in-range sink and that
// every other node hangs one level below an in-range parent. The depth
// rule rules out cycles, so the delivery walk toward the sink terminates.
func (t *Tree) validate() error {
	n := len(t.Parent)
	if t.Sink < 0 || t.Sink >= n || t.Parent[t.Sink] != -1 || t.Depth[t.Sink] != 0 {
		return fmt.Errorf("%w: sink %d is not a tree root", ErrBadConfig, t.Sink)
	}
	for node, parent := range t.Parent {
		if node == t.Sink {
			continue
		}
		if parent < 0 || parent >= n || t.Depth[node] != t.Depth[parent]+1 {
			return fmt.Errorf("%w: node %d has parent %d at depth %d",
				ErrBadConfig, node, parent, t.Depth[node])
		}
	}
	return nil
}

// Result reports one convergecast round.
type Result struct {
	// LinkOK[i] reports whether node i's upward transfer fully succeeded.
	LinkOK []bool
	// DeliveredToSink[i] reports whether node i's contribution reached the
	// sink (its own link and every ancestor link succeeded).
	DeliveredToSink []bool
	// FramesSent counts all frame transmissions including retries.
	FramesSent int
	// Duration is the TDMA round length.
	Duration time.Duration
}

// DeliveryRate is the fraction of non-sink nodes whose contribution reached
// the sink.
func (r *Result) DeliveryRate() float64 {
	n := len(r.DeliveredToSink)
	if n <= 1 {
		return 1
	}
	ok := 0
	for i, d := range r.DeliveredToSink {
		if d {
			ok++
		}
		_ = i
	}
	return float64(ok-1) / float64(n-1) // sink always "delivers" to itself
}

// Run executes one convergecast round: nodes transmit deepest-first (so
// aggregates fold upward within a single round); each message is fragmented
// into frames, each frame retried until ACKed or the budget runs out.
func Run(cfg Config, rng *rand.Rand, ledger *sim.RadioLedger, engine *sim.Engine) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ch := cfg.Channel
	n := ch.NumNodes()
	table := ch.LinkTable()
	tree := cfg.Tree
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 8
	}

	frameCap := phy.MaxPSDU - frameHeaderBytes
	frames := (cfg.MessageBytes + frameCap - 1) / frameCap
	lastFrame := cfg.MessageBytes - (frames-1)*frameCap

	params := ch.Params()
	fullSlot, err := params.SlotDuration(phy.MaxPSDU)
	if err != nil {
		return nil, err
	}
	lastSlot, err := params.SlotDuration(lastFrame + frameHeaderBytes)
	if err != nil {
		return nil, err
	}
	ackSlot, err := params.SlotDuration(3) // short link-layer ACK
	if err != nil {
		return nil, err
	}

	res := &Result{
		LinkOK:          make([]bool, n),
		DeliveredToSink: make([]bool, n),
	}
	res.LinkOK[tree.Sink] = true

	// Deepest-first order.
	order := make([]int, 0, n)
	maxDepth := 0
	for _, d := range tree.Depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	for depth := maxDepth; depth >= 1; depth-- {
		for node := 0; node < n; node++ {
			if tree.Depth[node] == depth {
				order = append(order, node)
			}
		}
	}

	var elapsed time.Duration
	for _, node := range order {
		parent := tree.Parent[node]
		allOK := true
		for f := 0; f < frames; f++ {
			slot := fullSlot
			if f == frames-1 {
				slot = lastSlot
			}
			frameOK := false
			for attempt := 0; attempt <= maxRetries; attempt++ {
				res.FramesSent++
				elapsed += slot + ackSlot
				if ledger != nil {
					// Sender: tx frame, rx ack. Parent: rx frame, tx ack.
					if err := ledger.AddBulk(node, slot, ackSlot); err != nil {
						return nil, err
					}
					if err := ledger.AddBulk(parent, ackSlot, slot); err != nil {
						return nil, err
					}
				}
				// The ACK travels over the same link; fold its loss in.
				if table.ReceiveSingle(node, parent, rng) {
					// A lost ACK causes a redundant retry but the data is
					// through; treat the frame as delivered.
					frameOK = true
					if table.ReceiveSingle(parent, node, rng) {
						break
					}
					continue
				}
			}
			if !frameOK {
				allOK = false
				break
			}
		}
		res.LinkOK[node] = allOK
	}

	// Contribution delivery: every ancestor link must have succeeded.
	for node := 0; node < n; node++ {
		delivered := true
		for cur := node; cur != tree.Sink; cur = tree.Parent[cur] {
			if !res.LinkOK[cur] {
				delivered = false
				break
			}
		}
		res.DeliveredToSink[node] = delivered
	}
	res.Duration = elapsed
	if engine != nil {
		if err := engine.Advance(elapsed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// AggregateReadings computes the sink's in-network aggregate for a round in
// which every node reports a whole vector of readings (multi-sensor samples
// or a window of values): the element-wise field sum of the vectors of all
// nodes whose contribution reached the sink. Nodes that failed delivery
// contribute nothing, mirroring how a convergecast aggregate silently drops
// lost subtrees. readings[i] is node i's vector; all vectors must share one
// width. The fold runs through the batched field layer (field.AccumulateVec),
// so the per-node cost is a single fused pass regardless of vector width.
func AggregateReadings(res *Result, readings [][]field.Element) ([]field.Element, error) {
	if res == nil {
		return nil, fmt.Errorf("%w: nil result", ErrBadConfig)
	}
	if len(readings) != len(res.DeliveredToSink) {
		return nil, fmt.Errorf("%w: %d reading vectors for %d nodes",
			ErrBadConfig, len(readings), len(res.DeliveredToSink))
	}
	width := -1
	for i, r := range readings {
		if width < 0 {
			width = len(r)
		} else if len(r) != width {
			return nil, fmt.Errorf("%w: reading vector %d has width %d, expected %d",
				ErrBadConfig, i, len(r), width)
		}
	}
	if width < 0 {
		width = 0
	}
	sum := make([]field.Element, width)
	for i, delivered := range res.DeliveredToSink {
		if !delivered {
			continue
		}
		if err := field.AccumulateVec(sum, readings[i]); err != nil {
			return nil, err
		}
	}
	return sum, nil
}
