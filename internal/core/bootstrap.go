package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"iotmpc/internal/field"
	"iotmpc/internal/minicast"
	"iotmpc/internal/phy"
	"iotmpc/internal/seckey"
	"iotmpc/internal/shamir"
	"iotmpc/internal/sim"
)

// Bootstrap is the outcome of the protocol's bootstrapping phase. The paper
// assumes "every node takes note of which neighbor is reachable at what NTX
// value" during bootstrapping; we realize that as a sequence of MiniCast
// probe rounds over the real channel model:
//
//   - for S3, probing finds the smallest NTX at which all-to-all sharing
//     achieves full coverage reliably (plus a safety margin) — the
//     full-coverage NTX the naive protocol must run at;
//   - for S4, probing measures per-destination delivery reliability at the
//     configured low NTX and fixes the common destination set D: the
//     degree+1+slack nodes reachable from EVERY source most reliably.
//     D must be common across sources because reconstruction interpolates
//     public-point sums, and a sum is only meaningful if it aggregates the
//     shares of every source.
type Bootstrap struct {
	// Channel is the radio backend probes ran on; rounds reuse it.
	Channel phy.Radio
	// NTXFull is the derived full-coverage NTX used by S3.
	NTXFull int
	// Dests is S4's common destination set, most reliable first.
	Dests []int
	// Reliability[i] is the min-over-sources delivery rate of Dests[i]
	// observed at the probing NTX.
	Reliability []float64
	// Diameter is the hop diameter of the connectivity graph (PRR >= 0.5).
	Diameter int

	cfg Config

	// What every round of this bootstrap shares, fixed by prepareRounds
	// and read-only afterwards, so concurrent rounds share it.
	//
	// dests is sealDests(); destPoints[j] is the public point of dests[j],
	// the points a source's shares are evaluated at.
	dests      []int
	destPoints []field.Element
	// links[src*n+dst] is the secure channel src seals shares to dst
	// under, prepared once for every pair a round uses and nil elsewhere.
	// Both directions of a pair share one Link.
	links []*seckey.Link
	// shareItems is the sharing chain: one item per (source, destination)
	// pair, sources in Config order and destinations in dests order,
	// skipping a source's own destination (that share never leaves the
	// node). Item i is sealed for slot i.
	shareItems []minicast.Item
	// commitItems is the commitment chain of verifiable rounds: one
	// broadcast item per polynomial coefficient per coordinate per
	// source; commitOwner[i] is item i's source.
	commitItems []minicast.Item
	commitOwner []int
}

// Probing constants. More probes sharpen the estimates at bootstrap cost;
// these mirror the short commissioning phase a real deployment would run.
// Probes run as lanes of one minicast.RunLanes call, each on its own RNG
// stream, so both probe counts must stay within phy.MaxLanes.
const (
	probesPerNTX     = 24
	probesForDests   = 24
	ntxSearchCeiling = 6 // multiple of (diameter+1) before giving up
	minReliability   = 0.85
	// ntxProbeLead is the first lane group of an NTX value's probes; the
	// other probesPerNTX-ntxProbeLead run only if all of these reach full
	// coverage, so an NTX that fails early does not pay for every probe.
	ntxProbeLead = 4
)

// RunBootstrap executes the bootstrapping phase for the configuration.
func RunBootstrap(cfg Config) (*Bootstrap, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	ch, err := cfg.buildRadio()
	if err != nil {
		return nil, err
	}
	diam, connected := ch.LinkTable().Diameter(0.5)
	if !connected {
		return nil, fmt.Errorf("%w: topology %q disconnected", ErrBootstrap, cfg.Topology.Name)
	}
	b := &Bootstrap{Channel: ch, Diameter: diam, cfg: cfg}

	if err := b.deriveNTXFull(); err != nil {
		return nil, err
	}
	if cfg.Protocol == S4 {
		if err := b.deriveDests(); err != nil {
			return nil, err
		}
	}
	if err := b.prepareRounds(); err != nil {
		return nil, err
	}
	return b, nil
}

// Config returns the normalized configuration the bootstrap was run for.
func (b *Bootstrap) Config() Config { return b.cfg }

// sealDests lists the destinations every source seals a share to: all
// nodes for S3, the bootstrapped common set for S4.
func (b *Bootstrap) sealDests() []int {
	if b.cfg.Protocol == S4 {
		return b.Dests
	}
	dests := make([]int, b.Channel.NumNodes())
	for i := range dests {
		dests[i] = i
	}
	return dests
}

// prepareRounds fixes what every round of the bootstrap shares: the
// destinations and their public points, the chain layouts, and the
// pairwise secure channel of every (source, destination) pair a round
// seals under, so rounds pay no per-packet key derivation or AES key
// expansion.
func (b *Bootstrap) prepareRounds() error {
	n := b.Channel.NumNodes()
	keys := seckey.NewStore(seckey.MasterFromSeed(b.cfg.MasterSeed))
	b.dests = b.sealDests()
	b.destPoints = make([]field.Element, len(b.dests))
	for j, dst := range b.dests {
		b.destPoints[j] = shamir.PublicPoint(dst)
	}
	b.links = make([]*seckey.Link, n*n)
	b.shareItems = make([]minicast.Item, 0, len(b.cfg.Sources)*len(b.dests))
	for _, src := range b.cfg.Sources {
		for _, dst := range b.dests {
			if dst == src {
				continue
			}
			b.shareItems = append(b.shareItems, minicast.Item{Owner: src, Dst: dst})
			if b.links[src*n+dst] != nil {
				continue
			}
			key, err := keys.PairKey(src, dst)
			if err != nil {
				return err
			}
			l := seckey.NewLink(key)
			b.links[src*n+dst], b.links[dst*n+src] = l, l
		}
	}
	if b.cfg.Verifiable {
		perSource := b.cfg.effVectorLen() * (b.cfg.Degree + 1)
		b.commitItems = make([]minicast.Item, 0, len(b.cfg.Sources)*perSource)
		b.commitOwner = make([]int, 0, len(b.cfg.Sources)*perSource)
		for _, src := range b.cfg.Sources {
			for c := 0; c < perSource; c++ {
				b.commitItems = append(b.commitItems, minicast.Item{Owner: src, Dst: -1})
				b.commitOwner = append(b.commitOwner, src)
			}
		}
	}
	return nil
}

// link returns the prepared channel from node src to node dst.
func (b *Bootstrap) link(src, dst int) (*seckey.Link, error) {
	l := b.links[src*b.Channel.NumNodes()+dst]
	if l == nil {
		return nil, fmt.Errorf("%w: no link %d -> %d prepared at bootstrap", ErrBadConfig, src, dst)
	}
	return l, nil
}

// streamRNGs returns count pooled generators reseeded to streams first,
// first+1, … under seed, each identical to a fresh sim.NewRNG of its
// stream; putRNGs returns them to the pool.
func streamRNGs(count int, seed int64, first uint64) []*rand.Rand {
	out := make([]*rand.Rand, count)
	for i := range out {
		out[i] = rngs.Get().(*rand.Rand)
		sim.ReseedRNG(out[i], seed, first+uint64(i))
	}
	return out
}

func putRNGs(streams []*rand.Rand) {
	for _, r := range streams {
		rngs.Put(r)
	}
}

// probeItems is an all-to-all broadcast chain: one item per node.
func probeItems(n int) []minicast.Item {
	items := make([]minicast.Item, n)
	for i := range items {
		items[i] = minicast.Item{Owner: i, Dst: -1}
	}
	return items
}

// deriveNTXFull searches upward from the diameter for the smallest NTX at
// which every probe achieves full all-to-all coverage, then applies the
// naive protocol's conservative sizing: NTXFull = 2×threshold + 2.
//
// The doubling is the point of "naive": S3 must deliver EVERY item to EVERY
// node across entire experiment campaigns (the paper runs 2000 iterations —
// tens of millions of (item, node) deliveries), but the bootstrap threshold
// is estimated from only a dozen probes of the best case. A deployment that
// cannot tolerate tail losses has to over-provision well past the probed
// threshold; doubling is the standard CT-literature margin (Glossy itself is
// typically run at N well above the minimum that floods the testbed). S4's
// entire design is about not needing this margin.
func (b *Bootstrap) deriveNTXFull() error {
	cfg := minicast.Config{
		Channel:      b.Channel,
		Initiator:    b.cfg.Initiator,
		Items:        probeItems(b.Channel.NumNodes()),
		PayloadBytes: sumPayloadBytes(b.cfg.effVectorLen()),
	}
	ceiling := ntxSearchCeiling * (b.Diameter + 1)
	// Each probe group's result is folded immediately, so one arena serves
	// the whole search, reset between groups.
	var arena sim.Arena
	for ntx := b.Diameter; ntx <= ceiling; ntx++ {
		cfg.NTX = ntx
		full, err := b.probesFull(cfg, 0, ntxProbeLead, &arena)
		if err == nil && full {
			full, err = b.probesFull(cfg, ntxProbeLead, probesPerNTX, &arena)
		}
		if err != nil {
			return err
		}
		if full {
			b.NTXFull = 2*ntx + 2
			return nil
		}
	}
	return fmt.Errorf("%w: no full-coverage NTX found below %d", ErrBootstrap, ceiling)
}

// probesFull runs NTX-search probes [from, to) of cfg.NTX as lanes of one
// chain and reports whether every one reached full all-to-all coverage.
// Probe p draws from its own stream, seeded 0x0B00+NTX·1000+p.
func (b *Bootstrap) probesFull(cfg minicast.Config, from, to int, arena *sim.Arena) (bool, error) {
	streams := streamRNGs(to-from, b.cfg.ChannelSeed, uint64(0x0B00+cfg.NTX*1000+from))
	defer putRNGs(streams)
	arena.Reset()
	res, err := minicast.RunLanes(cfg, len(streams), streams, nil, arena)
	if err != nil {
		return false, err
	}
	all := ^uint64(0) >> (64 - len(streams))
	for _, m := range res.HaveMask {
		if m != all {
			return false, nil
		}
	}
	return true, nil
}

// deriveDests measures, at the low sharing NTX, how reliably each node
// receives data originating at each source, and keeps the degree+1+slack
// nodes whose worst-source reliability is highest. The probes run as the
// lanes of one chain; probe p draws from its own stream, seeded 0xDE57+p.
func (b *Bootstrap) deriveDests() error {
	n := b.Channel.NumNodes()
	streams := streamRNGs(probesForDests, b.cfg.ChannelSeed, 0xDE57)
	defer putRNGs(streams)
	res, err := minicast.RunLanes(minicast.Config{
		Channel:      b.Channel,
		Initiator:    b.cfg.Initiator,
		NTX:          b.cfg.NTXSharing,
		Items:        probeItems(n),
		PayloadBytes: sharePayloadBytes(b.cfg.effVectorLen()),
	}, probesForDests, streams, nil, nil)
	if err != nil {
		return err
	}

	type cand struct {
		node int
		rel  float64
	}
	cands := make([]cand, 0, n)
	for node := 0; node < n; node++ {
		worst := 1.0
		for _, src := range b.cfg.Sources {
			// Item src is node src's; its lane mask at node counts the
			// probes that delivered it there.
			rel := float64(bits.OnesCount64(res.Have(node, src))) / probesForDests
			if src == node {
				rel = 1 // a source trivially "delivers" to itself
			}
			if rel < worst {
				worst = rel
			}
		}
		cands = append(cands, cand{node: node, rel: worst})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rel != cands[j].rel {
			return cands[i].rel > cands[j].rel
		}
		return cands[i].node < cands[j].node
	})

	want := b.cfg.Degree + 1 + b.cfg.DestSlack
	if len(cands) < want || cands[want-1].rel < minReliability {
		got := 0
		for _, c := range cands {
			if c.rel >= minReliability {
				got++
			}
		}
		return fmt.Errorf("%w: need %d destinations with reliability >= %.2f at NTX=%d, have %d",
			ErrBootstrap, want, minReliability, b.cfg.NTXSharing, got)
	}
	b.Dests = make([]int, want)
	b.Reliability = make([]float64, want)
	for i := 0; i < want; i++ {
		b.Dests[i] = cands[i].node
		b.Reliability[i] = cands[i].rel
	}
	return nil
}
