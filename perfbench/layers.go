package main

import (
	"fmt"
	"math"
	"math/bits"
	mathrand "math/rand"
	"math/rand/v2"
	"os"
	"reflect"
	"strconv"
	"time"

	"iotmpc/internal/cache"
	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
	"iotmpc/internal/field"
	"iotmpc/internal/glossy"
	"iotmpc/internal/minicast"
	"iotmpc/internal/phy"
	"iotmpc/internal/seckey"
	"iotmpc/internal/shamir"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
	"iotmpc/internal/vss"
)

// perLayer is what --trace 1 reports for every workload. README.md says
// which end-to-end metric and workload each one should move.
var perLayer = []metricDef{
	{"experiment.expand_ms", "ms", "lower"},
	{"experiment.cells", "count", "higher"},
	{"experiment.computed", "count", "lower"},
	{"experiment.cache_hits", "count", "higher"},
	{"experiment.manifest_hits", "count", "higher"},
	{"experiment.cell_ms.p50", "ms", "lower"},
	{"experiment.cell_ms.max", "ms", "lower"},
	{"core.bootstrap_ms", "ms", "lower"},
	{"core.bootstrap_share", "fraction", "lower"},
	{"core.round_us_per_trial", "us", "lower"},
	{"core.sharing_subslots", "count", "lower"},
	{"core.recon_subslots", "count", "lower"},
	{"core.verified_shares", "count", "higher"},
	{"core.correct_node_ratio", "fraction", "higher"},
	{"core.unattributed_share", "fraction", "lower"},
	{"phy.radio_build_ms", "ms", "lower"},
	{"phy.certain_link_ratio", "fraction", "higher"},
	{"glossy.flood_us", "us", "lower"},
	{"minicast.chain_us", "us", "lower"},
	{"minicast.recon_us", "us", "lower"},
	{"minicast.share_of_round", "fraction", "lower"},
	{"seckey.seal_ns", "ns", "lower"},
	{"seckey.open_ns", "ns", "lower"},
	{"seckey.pair_key_ns", "ns", "lower"},
	{"seckey.seals_per_trial", "count", "lower"},
	{"seckey.opens_per_trial", "count", "lower"},
	{"seckey.share_of_round", "fraction", "lower"},
	{"shamir.splitvec_ns", "ns", "lower"},
	{"shamir.reconstructvec_ns", "ns", "lower"},
	{"shamir.splits_per_trial", "count", "lower"},
	{"shamir.reconstructs_per_trial", "count", "lower"},
	{"shamir.share_of_round", "fraction", "lower"},
	{"vss.deal_us", "us", "lower"},
	{"vss.verify_us", "us", "lower"},
	{"vss.deals_per_trial", "count", "lower"},
	{"vss.verifies_per_trial", "count", "lower"},
	{"vss.share_of_round", "fraction", "lower"},
	{"cache.put_us", "us", "lower"},
	{"cache.get_us", "us", "lower"},
	{"cache.entries", "count", "lower"},
	{"cache.bytes", "bytes", "lower"},
	{"store.sync_update_ms", "ms", "lower"},
	{"store.checkpoint_ms", "ms", "lower"},
	{"store.rows", "count", "lower"},
	{"store.snapshot_bytes", "bytes", "lower"},
	{"store.wal_bytes", "bytes", "lower"},
	{"service.submit_ms.p50", "ms", "lower"},
	{"service.wait_ms.p50", "ms", "lower"},
	{"service.stream_ms.p50", "ms", "lower"},
	{"service.http_errors", "count", "lower"},
	{"dispatch.grant_wait_ms", "ms", "lower"},
	{"dispatch.shards", "count", "higher"},
	{"bench.trace_overhead", "fraction", "lower"},
	{"bench.job_self_share", "fraction", "lower"},
}

// officeDensity and deployment mirror the experiment package's choice of
// a cell's topology: the named testbed, or the synthesized office layout
// (random geometric, 0.009 nodes/m² over a 1.6:1 rectangle). The replay's
// result is compared with the Runner's, so a drift between the two shows
// as a failed check, not as silently wrong layers.
const officeDensity = 0.009

func deployment(sc experiment.Scenario) (topology.Topology, error) {
	if sc.Testbed != "" {
		return experiment.NamedTestbed(sc.Testbed)
	}
	area := float64(sc.Nodes) / officeDensity
	w := math.Sqrt(area * 1.6)
	return topology.RandomGeometric(sc.Nodes, w, area/w, sc.Seed)
}

// Chain sub-slot payload sizes as core lays them out: a 9-byte header
// (round, chain position, owner), then a sealed share vector, a 64-byte
// Feldman commitment coefficient, or vecLen 8-byte sums plus a 2-byte
// contribution count.
const (
	chainHeaderBytes = 9
	commitBytes      = 64
)

// Unit-cost loops: unitBatches spans per operation, each running the
// operation until unitBatchTime has passed (at least once).
const (
	unitBatches   = 5
	unitBatchTime = 3 * time.Millisecond
)

// unitCost times op in unitBatches spans called name and returns the
// median per-operation time in nanoseconds.
func unitCost(rec *recorder, name, key string, op func(i int) error) (float64, error) {
	if err := op(0); err != nil { // warm caches and pools outside the timing
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	var per []float64
	i := 1
	for b := 0; b < unitBatches; b++ {
		sp := rec.start(name, key, 0)
		t0 := time.Now()
		ops := 0
		for ops == 0 || time.Since(t0) < unitBatchTime {
			if err := op(i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			i++
			ops++
		}
		per = append(per, float64(time.Since(t0))/float64(ops))
		sp.endOps(ops)
	}
	return median(per), nil
}

// cellLayers is one sampled cell's replay: the spans' totals, the per-trial
// operation counts, and the unit costs at the cell's parameters.
type cellLayers struct {
	trials, batches, lanes int
	boot, rounds           time.Duration
	radio                  time.Duration
	certain, links         int

	sharingSubslots float64
	reconSubslots   float64 // per trial
	verified        float64 // per trial
	correct, nodes  int

	seals, opens, splits, recons, deals, verifies float64 // per trial
	sealNs, openNs, pairKeyNs                     float64
	splitNs, reconNs                              float64
	dealNs, verifyNs                              float64
	floodNs, chainNs, commitNs, reconChainNs      float64
}

// replayCell re-executes one cell outside the Runner with a span around
// every call into core, phy, glossy, minicast, seckey, shamir and vss, and
// checks that the replay reproduces the Runner's result for the cell.
func replayCell(rec *recorder, sc experiment.Scenario, want experiment.ScenarioResult) (*cellLayers, error) {
	key := "cell" + strconv.Itoa(sc.Index)
	tb, err := deployment(sc)
	if err != nil {
		return nil, err
	}
	factory, err := experiment.ParseBackend(sc.Backend)
	if err != nil {
		return nil, err
	}
	params := phy.DefaultParams()
	params.InterferenceBurstProb = sc.LossRate
	n := sc.Nodes
	cl := &cellLayers{trials: sc.Iterations, lanes: min(sc.Iterations, phy.MaxLanes)}

	sp := rec.start("phy.radio_build", key, 0)
	t0 := time.Now()
	radio, err := phy.Build(factory, params, tb.Positions, sc.Seed)
	if err != nil {
		return nil, err
	}
	lt := radio.LinkTable()
	cl.radio = time.Since(t0)
	sp.end()
	for tx := 0; tx < n; tx++ {
		for rx := 0; rx < n; rx++ {
			if tx != rx {
				cl.links++
				if lt.Certain(tx, rx) {
					cl.certain++
				}
			}
		}
	}

	sources := make([]int, n)
	for i := range sources {
		sources[i] = i
	}
	cfg := core.Config{
		Topology: tb, PHY: params, Backend: factory, Protocol: sc.Protocol, Sources: sources,
		Degree: sc.Degree, NTXSharing: sc.NTXSharing, DestSlack: sc.DestSlack,
		Verifiable: sc.Verifiable, VectorLen: sc.VectorLen, ChannelSeed: sc.Seed,
	}
	sp = rec.start("core.bootstrap", key, 0)
	t0 = time.Now()
	boot, err := core.RunBootstrap(cfg)
	cl.boot = time.Since(t0)
	sp.end()
	if err != nil {
		return nil, err
	}
	ncfg := boot.Config()

	chainLen := 0
	var verified, recon int
	for base := 0; base < sc.Iterations; base += phy.MaxLanes {
		size := min(phy.MaxLanes, sc.Iterations-base)
		sp := rec.start("core.round_lanes", key, 0)
		t0 := time.Now()
		res, err := core.RunRoundLanes(boot, uint64(base), size)
		cl.rounds += time.Since(t0)
		sp.endOps(size)
		if err != nil {
			return nil, err
		}
		cl.batches++
		for i, r := range res {
			if base+i == 0 {
				chainLen = r.SharingChainLen
			}
			cl.correct += r.CorrectNodes
			cl.nodes += len(r.NodeOK)
			verified += r.VerifiedShares
			recon += r.ReconChainLen
		}
	}
	if got := float64(cl.correct) / float64(cl.nodes); got != want.SuccessRate || chainLen != want.SharingChainLen {
		return nil, fmt.Errorf("replay of cell %d: success %v chain %d, Runner said %v and %d",
			sc.Index, got, chainLen, want.SuccessRate, want.SharingChainLen)
	}
	trials := float64(sc.Iterations)
	cl.sharingSubslots = float64(chainLen)
	cl.reconSubslots = float64(recon) / trials
	cl.verified = float64(verified) / trials
	cl.recons = float64(cl.correct) / trials

	if err := cl.units(rec, key, boot, ncfg, sc); err != nil {
		return nil, err
	}
	return cl, nil
}

// units measures the unit costs and the per-trial operation counts at the
// cell's vector length, degree, node count and destination set.
func (cl *cellLayers) units(rec *recorder, key string, boot *core.Bootstrap, cfg core.Config, sc experiment.Scenario) error {
	n := len(cfg.Sources)
	vecLen := max(cfg.VectorLen, 1)
	degree := cfg.Degree
	rng := sim.NewRNG(sc.Seed, 0xBE7C)
	points := shamir.PublicPoints(n)
	values := make([]field.Element, vecLen)
	for i := range values {
		values[i] = field.New(rng.Uint64())
	}
	dests := boot.Dests
	ntx := cfg.NTXSharing
	if cfg.Protocol == core.S3 {
		dests = make([]int, n)
		for i := range dests {
			dests[i] = i
		}
		ntx = boot.NTXFull
	}

	// Sealing and opening one share vector.
	pk, err := seckey.NewStore(seckey.MasterFromSeed(cfg.MasterSeed)).PairKey(0, 1)
	if err != nil {
		return err
	}
	const sealedRing = 64
	sealed := make([][]byte, sealedRing)
	ctxOf := func(i int) seckey.PacketContext {
		return seckey.PacketContext{Round: uint32(i), Sender: 0, Receiver: 1, Slot: uint32(i)}
	}
	for i := range sealed {
		if sealed[i], err = seckey.SealVector(pk, ctxOf(i), values); err != nil {
			return err
		}
	}
	if cl.sealNs, err = unitCost(rec, "seckey.seal", key, func(i int) error {
		_, err := seckey.SealVector(pk, ctxOf(i), values)
		return err
	}); err != nil {
		return err
	}
	if cl.openNs, err = unitCost(rec, "seckey.open", key, func(i int) error {
		_, err := seckey.OpenVector(pk, ctxOf(i%sealedRing), vecLen, sealed[i%sealedRing])
		return err
	}); err != nil {
		return err
	}

	// A round derives every pair key afresh on both sides of a delivery:
	// each trial commissions a new key store, whose per-pair cache starts
	// empty.
	const pairsPerStore = 512
	master := seckey.MasterFromSeed(cfg.MasterSeed)
	var ks *seckey.Store
	if cl.pairKeyNs, err = unitCost(rec, "seckey.pair_key", key, func(i int) error {
		p := i % pairsPerStore
		if p == 0 || ks == nil {
			ks = seckey.NewStore(master)
		}
		_, err := ks.PairKey(p/32, 32+p%32)
		return err
	}); err != nil {
		return err
	}

	// Splitting a reading vector and reconstructing an aggregate.
	if cl.splitNs, err = unitCost(rec, "shamir.splitvec", key, func(int) error {
		_, err := shamir.SplitVec(values, degree, points, rng)
		return err
	}); err != nil {
		return err
	}
	shares, err := shamir.SplitVec(values, degree, points, rng)
	if err != nil {
		return err
	}
	held := make([]shamir.ShareVector, 0, len(dests))
	for _, d := range dests {
		held = append(held, shares[d])
	}
	if cl.reconNs, err = unitCost(rec, "shamir.reconstructvec", key, func(int) error {
		_, err := shamir.ReconstructVec(held, degree)
		return err
	}); err != nil {
		return err
	}

	// Feldman dealing and verifying one coordinate.
	vshares, commit, err := vss.Deal(values[0], degree, points, rng)
	if err != nil {
		return err
	}
	if cl.dealNs, err = unitCost(rec, "vss.deal", key, func(int) error {
		_, _, err := vss.Deal(values[0], degree, points, rng)
		return err
	}); err != nil {
		return err
	}
	if cl.verifyNs, err = unitCost(rec, "vss.verify", key, func(i int) error {
		return vss.Verify(vshares[i%len(vshares)], commit)
	}); err != nil {
		return err
	}

	// One lane-batched flood and the round's chains on the cell's radio.
	rngs := make([]*mathrand.Rand, cl.lanes)
	for l := range rngs {
		rngs[l] = sim.NewRNG(sc.Seed, uint64(0xC4A1+l))
	}
	var arena sim.Arena
	sharePayload := chainHeaderBytes + seckey.SealedVectorSize(vecLen)
	if cl.floodNs, err = unitCost(rec, "glossy.flood", key, func(int) error {
		arena.Reset()
		_, err := glossy.RunLanes(glossy.Config{Channel: boot.Channel, Initiator: cfg.Initiator, NTX: ntx,
			PayloadBytes: sharePayload}, cl.lanes, rngs, nil, &arena, nil)
		return err
	}); err != nil {
		return err
	}
	var items []minicast.Item
	for _, src := range cfg.Sources {
		for _, dst := range dests {
			if dst != src {
				items = append(items, minicast.Item{Owner: src, Dst: dst})
			}
		}
	}
	share := minicast.Config{Channel: boot.Channel, Initiator: cfg.Initiator, NTX: ntx, Items: items,
		PayloadBytes: sharePayload}
	if cl.chainNs, err = unitCost(rec, "minicast.chain", key, func(int) error {
		arena.Reset()
		_, err := minicast.RunLanes(share, cl.lanes, rngs, nil, &arena)
		return err
	}); err != nil {
		return err
	}
	// Shares delivered to their destination per trial: every one is opened.
	arena.Reset()
	lr, err := minicast.RunLanes(share, cl.lanes, rngs, nil, &arena)
	if err != nil {
		return err
	}
	delivered := 0
	for i, it := range items {
		delivered += bits.OnesCount64(lr.Have(it.Dst, i))
	}
	cl.seals = float64(len(items))
	cl.opens = float64(delivered) / float64(cl.lanes)
	if cfg.Verifiable {
		var commits []minicast.Item
		for _, src := range cfg.Sources {
			for c := 0; c < vecLen*(degree+1); c++ {
				commits = append(commits, minicast.Item{Owner: src, Dst: -1})
			}
		}
		if cl.commitNs, err = unitCost(rec, "minicast.commit_chain", key, func(int) error {
			arena.Reset()
			_, err := minicast.RunLanes(minicast.Config{Channel: boot.Channel, Initiator: cfg.Initiator,
				NTX: ntx, Items: commits, PayloadBytes: chainHeaderBytes + commitBytes}, cl.lanes, rngs, nil, &arena)
			return err
		}); err != nil {
			return err
		}
		cl.deals = float64(n * vecLen)
		cl.verifies = cl.verified
	} else {
		cl.splits = float64(n)
	}
	// One lane's reconstruction chain, scalar as in the round.
	holders := make([]minicast.Item, len(dests))
	for i, d := range dests {
		holders[i] = minicast.Item{Owner: d, Dst: -1}
	}
	recon := minicast.Config{Channel: boot.Channel, Initiator: cfg.Initiator, NTX: ntx, Items: holders,
		PayloadBytes: chainHeaderBytes + 8*vecLen + 2}
	if cfg.Protocol == core.S4 {
		need := degree + 1
		recon.StopListen = func(_ int, have []bool) bool {
			count := 0
			for _, h := range have {
				if h {
					count++
				}
			}
			return count >= need
		}
	}
	cl.reconChainNs, err = unitCost(rec, "minicast.recon_chain", key, func(int) error {
		arena.Reset()
		_, err := minicast.RunArena(recon, rngs[0], nil, nil, &arena)
		return err
	})
	return err
}

// probeLayers replays up to samples cells (a seeded pick, one per distinct
// backend×protocol first) and times the cache, reporting the core, phy,
// glossy, minicast, seckey, shamir, vss and cache metrics.
func probeLayers(rec *recorder, seed int64, cells []experiment.Scenario, results []experiment.ScenarioResult,
	samples int, cacheDir string, m map[string]float64) (attempted, failed int, err error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x1A7E))
	order := rng.Perm(len(cells))
	var pick []int
	seen := map[string]bool{}
	for pass := 0; pass < 2 && len(pick) < samples; pass++ {
		for _, i := range order {
			k := cells[i].Backend + "/" + cells[i].Protocol.String()
			if len(pick) < samples && (pass == 1 || !seen[k]) && !contains(pick, i) {
				pick = append(pick, i)
				seen[k] = true
			}
		}
	}

	var ls []*cellLayers
	for _, i := range pick {
		attempted++
		cl, err := replayCell(rec, cells[i], results[i])
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			continue
		}
		ls = append(ls, cl)
	}
	if len(ls) == 0 {
		return attempted, failed, fmt.Errorf("no sampled cell replayed")
	}
	layerMetrics(ls, m)

	a, f, err := probeCache(rec, cacheDir, results, m)
	return attempted + a, failed + f, err
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// layerMetrics folds the replayed cells into the per-layer metrics. Times
// are per-cell means; a layer's share of the round is its unit cost times
// its per-trial count, summed over the cells' trials, over the measured
// round time.
func layerMetrics(ls []*cellLayers, m map[string]float64) {
	var boot, rounds, trials float64
	var sealC, splitC, reconC, dealC, verifyC, chainC float64
	var pc = map[string][]float64{}
	add := func(k string, v float64) { pc[k] = append(pc[k], v) }
	correct, nodes, certain, links := 0, 0, 0, 0
	for _, c := range ls {
		t := float64(c.trials)
		boot += float64(c.boot)
		rounds += float64(c.rounds)
		trials += t
		sealC += t * (c.seals*(c.sealNs+c.pairKeyNs) + c.opens*(c.openNs+c.pairKeyNs))
		splitC += t * c.splits * c.splitNs
		reconC += t * c.recons * c.reconNs
		dealC += t * c.deals * c.dealNs
		verifyC += t * c.verifies * c.verifyNs
		chainC += float64(c.batches) * (c.chainNs + c.commitNs + float64(c.lanes)*c.reconChainNs)
		correct += c.correct
		nodes += c.nodes
		certain += c.certain
		links += c.links
		add("core.bootstrap_ms", float64(c.boot)/1e6)
		add("phy.radio_build_ms", float64(c.radio)/1e6)
		add("glossy.flood_us", c.floodNs/1e3)
		add("minicast.chain_us", c.chainNs/1e3)
		add("minicast.recon_us", c.reconChainNs/1e3)
		add("seckey.seal_ns", c.sealNs)
		add("seckey.open_ns", c.openNs)
		add("seckey.pair_key_ns", c.pairKeyNs)
		add("shamir.splitvec_ns", c.splitNs)
		add("shamir.reconstructvec_ns", c.reconNs)
		add("vss.deal_us", c.dealNs/1e3)
		add("vss.verify_us", c.verifyNs/1e3)
		add("core.sharing_subslots", c.sharingSubslots)
		add("core.recon_subslots", c.reconSubslots)
		add("core.verified_shares", c.verified)
		add("seckey.seals_per_trial", c.seals)
		add("seckey.opens_per_trial", c.opens)
		add("shamir.splits_per_trial", c.splits)
		add("shamir.reconstructs_per_trial", c.recons)
		add("vss.deals_per_trial", c.deals)
		add("vss.verifies_per_trial", c.verifies)
	}
	for k, v := range pc {
		m[k] = mean(v)
	}
	m["core.bootstrap_share"] = boot / (boot + rounds)
	m["core.round_us_per_trial"] = rounds / trials / 1e3
	m["core.correct_node_ratio"] = float64(correct) / float64(nodes)
	m["phy.certain_link_ratio"] = float64(certain) / float64(links)
	m["seckey.share_of_round"] = sealC / rounds
	m["shamir.share_of_round"] = (splitC + reconC) / rounds
	m["vss.share_of_round"] = (dealC + verifyC) / rounds
	m["minicast.share_of_round"] = chainC / rounds
	m["core.unattributed_share"] = remainder(m["seckey.share_of_round"], m["shamir.share_of_round"],
		m["vss.share_of_round"], m["minicast.share_of_round"])
}

// probeCache times Put and Get of the workload's own results on a cache
// directory the benchmark owns, and checks every value round-trips.
func probeCache(rec *recorder, dir string, results []experiment.ScenarioResult, m map[string]float64) (attempted, failed int, err error) {
	c, err := cache.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	keyOf := func(i int) string { return cache.Key("perfbench/cache-probe", []byte(strconv.Itoa(i))) }
	if m["cache.put_us"], err = unitCost(rec, "cache.put", "", func(i int) error {
		return c.Put(keyOf(i), results[i%len(results)])
	}); err != nil {
		return 0, 0, err
	}
	for i := range results {
		if err := c.Put(keyOf(i), results[i]); err != nil {
			return 0, 0, err
		}
	}
	if m["cache.get_us"], err = unitCost(rec, "cache.get", "", func(i int) error {
		var got experiment.ScenarioResult
		ok, err := c.Get(keyOf(i%len(results)), &got)
		want := results[i%len(results)]
		want.Cached = false
		attempted++
		if err != nil || !ok || !reflect.DeepEqual(got, want) {
			failed++
		}
		return err
	}); err != nil {
		return attempted, failed, err
	}
	m["cache.put_us"] /= 1e3
	m["cache.get_us"] /= 1e3
	return attempted, failed, nil
}
