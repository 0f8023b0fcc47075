package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"iotmpc/internal/field"
	"iotmpc/internal/minicast"
	"iotmpc/internal/seckey"
	"iotmpc/internal/shamir"
	"iotmpc/internal/sim"
	"iotmpc/internal/trace"
	"iotmpc/internal/vss"
)

// roundArenas pools the per-round scratch arenas the chain phases borrow
// their buffers from. Trial workers check one out per RunRound call, so a
// scenario's Monte-Carlo loop reuses the same warm buffers round after
// round instead of reallocating every flood's state arrays.
var roundArenas = sync.Pool{New: func() any { return new(sim.Arena) }}

// RoundResult reports one full private-aggregation round.
type RoundResult struct {
	// Expected is the plaintext Σ secrets of the sources (ground truth the
	// simulation can see; the nodes never do). For vector rounds this is
	// coordinate 0; ExpectedVec holds the full vector.
	Expected field.Element
	// ExpectedVec is the expected aggregate for every reading coordinate
	// (length VectorLen).
	ExpectedVec []field.Element
	// Aggregate[i] is node i's reconstructed aggregate (valid iff NodeOK[i]).
	// For vector rounds this is coordinate 0; AggregateVec has the rest.
	Aggregate []field.Element
	// AggregateVec[i] is node i's full reconstructed aggregate vector
	// (valid iff NodeOK[i]).
	AggregateVec [][]field.Element
	// NodeOK[i] reports whether node i obtained a correct aggregate (every
	// coordinate correct, for vector rounds).
	NodeOK []bool
	// CorrectNodes counts nodes with a correct aggregate.
	CorrectNodes int
	// Latency[i] is the end-to-end time until node i held the aggregate
	// (-1 if it failed).
	Latency []time.Duration
	// MeanLatency / MaxLatency summarize Latency over successful nodes.
	MeanLatency time.Duration
	MaxLatency  time.Duration
	// RadioOn[i] is node i's radio-on time across both phases.
	RadioOn []time.Duration
	// MeanRadioOn averages RadioOn over all nodes.
	MeanRadioOn time.Duration
	// Phase diagnostics.
	SharingDuration time.Duration
	ReconDuration   time.Duration
	SharingChainLen int
	ReconChainLen   int
	NTXUsed         int
	// VectorLen is the effective reading-vector length of the round (1 for
	// scalar rounds); SharePayloadBytes is the per-sub-slot payload size of
	// the sharing chain, so SharingChainLen × SharePayloadBytes is the
	// on-air payload volume of one chain pass.
	VectorLen         int
	SharePayloadBytes int
	// VerifiedShares / UnverifiedShares report verifiable-mode coverage in
	// share VALUES (coordinates): values checked against a received
	// commitment vs. absorbed optimistically because the commitment chain
	// missed the destination.
	VerifiedShares   int
	UnverifiedShares int
}

// shareDelivery is one sealed share vector riding a chain sub-slot.
type shareDelivery struct {
	item   minicast.Item
	sealed []byte
}

// RunRound executes one aggregation round. trial selects the randomness
// stream (secrets, fading, reception draws); runs with the same
// (bootstrap, trial) are bit-identical.
func RunRound(boot *Bootstrap, trial uint64) (*RoundResult, error) {
	return RunRoundWithSecrets(boot, trial, nil)
}

// RunRoundWithSecrets is RunRound with per-round source readings (e.g. this
// period's meter values), overriding any secrets fixed in the configuration.
// The map must cover every source. In vector mode the fixed reading becomes
// coordinate 0; the remaining coordinates stay at their per-round random
// draw.
func RunRoundWithSecrets(boot *Bootstrap, trial uint64, secrets map[int]uint64) (*RoundResult, error) {
	return RunRoundTraced(boot, trial, secrets, nil)
}

// sharePrep is everything one trial computes before any packet is on the
// air: the sources' readings, their sealed share deliveries, the chain item
// layouts, and the (lane-independent) destination/NTX schedule. The item
// lists depend only on the bootstrap and the source set, never on the
// trial, which is what lets the lane path run one chain pass for a whole
// trial batch.
type sharePrep struct {
	expected    []field.Element
	deliveries  []shareDelivery
	localShares map[int][]shamir.ShareVector
	commits     map[int][]*vss.Commitment
	shareGenMax time.Duration
	shareItems  []minicast.Item
	commitItems []minicast.Item
	commitOwner []int // commitment chain index → source
	dests       []int
	ntx         int
	vecLen      int
	vecMode     bool
}

// prepareShares runs the on-node compute prologue of one trial: draw the
// readings from secretRNG, split them (Feldman-dealt in verifiable mode),
// seal one vector per (source, destination), and lay out the sharing and
// commitment chains.
func prepareShares(boot *Bootstrap, cfg Config, trial uint64, secretRNG *rand.Rand,
	rec *trace.Recorder) (*sharePrep, error) {
	ch := boot.Channel
	n := ch.NumNodes()
	points := shamir.PublicPoints(n)

	p := &sharePrep{
		vecLen: cfg.effVectorLen(),
		// vecMode distinguishes an explicit vector deployment (VectorLen
		// >= 1) from the scalar default only where the OUTPUT must stay
		// byte-stable for historical configurations: trace event details.
		vecMode: cfg.VectorLen > 0,
		ntx:     cfg.NTXSharing,
		dests:   boot.sealDests(),
	}
	if cfg.Protocol == S3 {
		p.ntx = boot.NTXFull
	}
	vecLen := p.vecLen

	p.expected = make([]field.Element, vecLen)
	p.deliveries = make([]shareDelivery, 0, len(cfg.Sources)*len(p.dests))
	// localShares[j] collects share vectors that never ride the chain
	// because the source is its own destination.
	p.localShares = make(map[int][]shamir.ShareVector, len(cfg.Sources))
	// commits[src][k] is source src's Feldman commitment for coordinate k.
	p.commits = make(map[int][]*vss.Commitment, len(cfg.Sources))
	for _, src := range cfg.Sources {
		reading := make([]field.Element, vecLen)
		for k := range reading {
			reading[k] = field.New(secretRNG.Uint64())
		}
		if cfg.Secrets != nil {
			reading[0] = field.New(cfg.Secrets[src])
		}
		for k, secret := range reading {
			p.expected[k] = p.expected[k].Add(secret)
		}
		var out []shamir.ShareVector
		if cfg.Verifiable {
			out = make([]shamir.ShareVector, n)
			for i := range out {
				out[i] = shamir.ShareVector{X: points[i], Values: make([]field.Element, vecLen)}
			}
			cs := make([]*vss.Commitment, vecLen)
			for k, secret := range reading {
				vshares, commit, err := vss.Deal(secret, cfg.Degree, points, secretRNG)
				if err != nil {
					return nil, err
				}
				cs[k] = commit
				for i, vs := range vshares {
					out[i].Values[k] = vs.Value
				}
			}
			p.commits[src] = cs
		} else {
			var err error
			out, err = shamir.SplitVec(reading, cfg.Degree, points, secretRNG)
			if err != nil {
				return nil, err
			}
		}
		genCost := cfg.CPU.ShareGenerationVec(cfg.Degree, len(p.dests), vecLen)
		if cfg.Verifiable {
			genCost += time.Duration(vecLen) * cfg.CPU.VSSCommit(cfg.Degree)
		}
		if genCost > p.shareGenMax {
			p.shareGenMax = genCost
		}
		genDetail := fmt.Sprintf("%d destinations", len(p.dests))
		if p.vecMode {
			genDetail = fmt.Sprintf("%d destinations, veclen=%d", len(p.dests), vecLen)
		}
		rec.Record(genCost, trace.KindShareGen, src, genDetail)
		for _, dst := range p.dests {
			if dst == src {
				p.localShares[dst] = append(p.localShares[dst], out[dst])
				continue
			}
			link, err := boot.link(src, dst)
			if err != nil {
				return nil, err
			}
			ctx := seckey.PacketContext{
				Round:    uint32(trial),
				Sender:   uint16(src),
				Receiver: uint16(dst),
				Slot:     uint32(len(p.deliveries)),
			}
			sealed, err := link.SealVector(ctx, out[dst].Values)
			if err != nil {
				return nil, err
			}
			p.deliveries = append(p.deliveries, shareDelivery{
				item:   minicast.Item{Owner: src, Dst: dst},
				sealed: sealed,
			})
		}
	}
	p.shareItems = make([]minicast.Item, len(p.deliveries))
	for i, d := range p.deliveries {
		p.shareItems[i] = d.item
	}
	if cfg.Verifiable {
		// One broadcast item per polynomial coefficient per coordinate per
		// source.
		p.commitItems = make([]minicast.Item, 0, len(cfg.Sources)*vecLen*(cfg.Degree+1))
		for _, src := range cfg.Sources {
			for c := 0; c < vecLen*(cfg.Degree+1); c++ {
				p.commitItems = append(p.commitItems, minicast.Item{Owner: src, Dst: -1})
				p.commitOwner = append(p.commitOwner, src)
			}
		}
	}
	return p, nil
}

// roundExec carries one trial's state between the sharing chains and the
// round epilogue. haveShare/haveCommit abstract the chain delivery matrix,
// so the epilogue reads a scalar minicast.Result and a bit-sliced lane mask
// through the same code path.
type roundExec struct {
	boot     *Bootstrap
	cfg      Config
	trial    uint64
	prep     *sharePrep
	rec      *trace.Recorder
	ledger   *sim.RadioLedger
	engine   *sim.Engine
	radioRNG *rand.Rand

	commitDur time.Duration
	shareDur  time.Duration
	// haveShare reports whether the sharing chain delivered item idx to
	// dst; haveCommit is the same for the commitment chain (nil when the
	// round is not verifiable).
	haveShare  func(dst, idx int) bool
	haveCommit func(dst, idx int) bool
}

// hasFullCommitment reports whether dst received every commitment
// coefficient dealt by src in the commitment chain.
func (e *roundExec) hasFullCommitment(dst, src int) bool {
	if e.haveCommit == nil {
		return false
	}
	for idx, owner := range e.prep.commitOwner {
		if owner == src && !e.haveCommit(dst, idx) {
			return false
		}
	}
	return true
}

// finish runs the round epilogue: per-destination aggregation, holder
// selection, the reconstruction chain (drawing from radioRNG), and the
// per-node result fold. The arena backs the reconstruction chain's buffers;
// the returned RoundResult owns its memory.
func (e *roundExec) finish(arena *sim.Arena) (*RoundResult, error) {
	boot, cfg, prep, rec := e.boot, e.cfg, e.prep, e.rec
	ch := boot.Channel
	n := ch.NumNodes()
	vecLen := prep.vecLen
	ntx := prep.ntx
	expected := prep.expected
	ledger := e.ledger

	// --- Local aggregation at each destination (coordinate-wise). ---
	sums := make([][]field.Element, n)
	addVec := func(dst int, values []field.Element) error {
		if sums[dst] == nil {
			sums[dst] = make([]field.Element, vecLen)
		}
		return field.AccumulateVec(sums[dst], values)
	}
	contrib := make([]int, n)
	absorbCPU := make([]time.Duration, n)
	var verified, unverified int
	for dst, shares := range prep.localShares {
		for _, sv := range shares {
			if err := addVec(dst, sv.Values); err != nil {
				return nil, err
			}
			contrib[dst]++
		}
	}
	for idx, d := range prep.deliveries {
		dst := d.item.Dst
		if !e.haveShare(dst, idx) {
			continue
		}
		link, err := boot.link(d.item.Owner, dst)
		if err != nil {
			return nil, err
		}
		ctx := seckey.PacketContext{
			Round:    uint32(e.trial),
			Sender:   uint16(d.item.Owner),
			Receiver: uint16(dst),
			Slot:     uint32(idx),
		}
		values, err := link.OpenVector(ctx, vecLen, d.sealed)
		if err != nil {
			return nil, fmt.Errorf("open share vector %d: %w", idx, err)
		}
		if cfg.Verifiable {
			// Verify against the dealer's commitments when the commitment
			// chain reached this destination; absorb optimistically
			// otherwise (coverage is reported in the result).
			if e.hasFullCommitment(dst, d.item.Owner) {
				for k, v := range values {
					share := vss.Share{X: shamir.PublicPoint(dst), Value: v}
					if vErr := vss.Verify(share, prep.commits[d.item.Owner][k]); vErr != nil {
						// With honest dealers this indicates a protocol bug.
						return nil, fmt.Errorf("verify share %d[%d]: %w", idx, k, vErr)
					}
				}
				verified += vecLen
				absorbCPU[dst] += time.Duration(vecLen) * cfg.CPU.VSSVerify(cfg.Degree)
			} else {
				unverified += vecLen
			}
		}
		if err := addVec(dst, values); err != nil {
			return nil, err
		}
		contrib[dst]++
	}
	for _, dst := range prep.dests {
		absorbCPU[dst] += cfg.CPU.SumAbsorbVec(contrib[dst], vecLen)
	}

	// Only destinations whose sum aggregates EVERY source re-share it; an
	// incomplete sum would poison interpolation. (The sum packet carries a
	// contribution count, so peers can tell.)
	holders := make([]int, 0, len(prep.dests))
	for _, dst := range prep.dests {
		if contrib[dst] == len(cfg.Sources) {
			holders = append(holders, dst)
			rec.Record(prep.shareGenMax+e.commitDur+e.shareDur, trace.KindSumComplete, dst, "")
		} else {
			rec.Record(prep.shareGenMax+e.commitDur+e.shareDur, trace.KindSumIncomplete, dst,
				fmt.Sprintf("%d/%d shares", contrib[dst], len(cfg.Sources)))
		}
	}
	need := cfg.Degree + 1
	if len(holders) < need {
		// The round is unrecoverable network-wide; report total failure.
		return failedRound(expected, n, ledger, e.commitDur+e.shareDur,
			len(prep.shareItems), ntx, vecLen), nil
	}

	// --- Reconstruction phase over MiniCast (plaintext sum vectors). ---
	reconItems := make([]minicast.Item, len(holders))
	for i, h := range holders {
		reconItems[i] = minicast.Item{Owner: h, Dst: -1}
	}
	var stopListen func(int, []bool) bool
	if cfg.Protocol == S4 && !cfg.NoEarlyOff {
		// S4 nodes duty-cycle off once any k+1 sums are in hand.
		stopListen = func(node int, have []bool) bool {
			count := 0
			for _, h := range have {
				if h {
					count++
					if count >= need {
						return true
					}
				}
			}
			return false
		}
	}
	reconRes, err := minicast.RunArena(minicast.Config{
		Channel:      ch,
		Initiator:    cfg.Initiator,
		NTX:          ntx,
		Items:        reconItems,
		PayloadBytes: sumPayloadBytes(vecLen),
		StopListen:   stopListen,
		Failed:       cfg.Failed,
	}, e.radioRNG, ledger, e.engine, arena)
	if err != nil {
		return nil, fmt.Errorf("reconstruction phase: %w", err)
	}
	rec.Record(prep.shareGenMax+e.commitDur+e.shareDur+reconRes.Duration, trace.KindPhase, -1,
		fmt.Sprintf("reconstruction: chain=%d", len(reconItems)))

	// --- Per-node reconstruction and latency. ---
	res := &RoundResult{
		Expected:        expected[0],
		ExpectedVec:     expected,
		Aggregate:       make([]field.Element, n),
		AggregateVec:    make([][]field.Element, n),
		NodeOK:          make([]bool, n),
		Latency:         make([]time.Duration, n),
		RadioOn:         make([]time.Duration, n),
		SharingDuration: e.commitDur + e.shareDur,
		ReconDuration:   reconRes.Duration,
		SharingChainLen: len(prep.shareItems),
		ReconChainLen:   len(reconItems),
		NTXUsed:         ntx,

		VectorLen:         vecLen,
		SharePayloadBytes: sharePayloadBytes(vecLen),

		VerifiedShares:   verified,
		UnverifiedShares: unverified,
	}
	var latSum, latMax time.Duration
	okCount := 0
	for node := 0; node < n; node++ {
		res.RadioOn[node] = ledger.OnTime(node)
		res.Latency[node] = -1

		// Collect the arrival times of the sums this node holds.
		arrivals := make([]time.Duration, 0, len(holders))
		held := make([]shamir.ShareVector, 0, len(holders))
		for i, h := range holders {
			if !reconRes.Have[node][i] {
				continue
			}
			arrivals = append(arrivals, reconRes.RxAt[node][i])
			held = append(held, shamir.ShareVector{X: shamir.PublicPoint(h), Values: sums[h]})
		}
		required := need
		if cfg.Protocol == S3 {
			required = len(holders) // naive: wait for strict all-to-all
		}
		if len(held) < required {
			rec.Record(prep.shareGenMax+e.commitDur+e.shareDur+reconRes.Duration,
				trace.KindAggregateFail, node,
				fmt.Sprintf("%d/%d sums", len(held), required))
			continue
		}
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
		readyAt := arrivals[required-1]

		agg, err := shamir.ReconstructVec(held, cfg.Degree)
		if err != nil {
			return nil, err
		}
		res.Aggregate[node] = agg[0]
		res.AggregateVec[node] = agg
		ok := true
		for k := range agg {
			if agg[k] != expected[k] {
				ok = false // would indicate an incomplete sum slipped through
				break
			}
		}
		if !ok {
			continue
		}
		res.NodeOK[node] = true
		okCount++
		lat := prep.shareGenMax + e.commitDur + e.shareDur + absorbCPU[node] + readyAt +
			cfg.CPU.InterpolationVec(need, vecLen)
		res.Latency[node] = lat
		rec.Record(lat, trace.KindAggregateOK, node, "")
		latSum += lat
		if lat > latMax {
			latMax = lat
		}
	}
	res.CorrectNodes = okCount
	if okCount > 0 {
		res.MeanLatency = latSum / time.Duration(okCount)
		res.MaxLatency = latMax
	}
	var onSum time.Duration
	for node := 0; node < n; node++ {
		onSum += res.RadioOn[node]
	}
	res.MeanRadioOn = onSum / time.Duration(n)
	return res, nil
}

// RunRoundTraced is RunRoundWithSecrets with an optional event recorder; a
// nil recorder is a no-op sink.
//
// The round is vectorized end to end: every source shares a VectorLen-long
// reading vector (shamir.SplitVec — one polynomial per coordinate), ships
// ONE sealed vector per destination (seckey.Link.SealVector over the link
// prepared at bootstrap — one MIC for the whole vector), destinations
// aggregate share vectors coordinate-wise, and reconstruction recovers the
// full aggregate vector from one cached Lagrange basis
// (shamir.ReconstructVec). Scalar rounds are the L=1 degenerate case and
// produce results bit-identical to the historical one-share-per-packet
// path.
func RunRoundTraced(boot *Bootstrap, trial uint64, secrets map[int]uint64, rec *trace.Recorder) (*RoundResult, error) {
	if boot == nil || boot.Channel == nil {
		return nil, fmt.Errorf("%w: nil bootstrap", ErrBadConfig)
	}
	cfg := boot.cfg
	if secrets != nil {
		for _, s := range cfg.Sources {
			if _, ok := secrets[s]; !ok {
				return nil, fmt.Errorf("%w: no secret for source %d", ErrBadConfig, s)
			}
		}
		cfg.Secrets = secrets
	}
	ch := boot.Channel
	n := ch.NumNodes()

	secretRNG := sim.NewRNG(cfg.ChannelSeed, trial*4+1)
	radioRNG := sim.NewRNG(cfg.ChannelSeed, trial*4+2)

	// All three chain phases borrow from one arena; their results must stay
	// readable side by side until the round is folded, so the arena resets
	// once, on the way out.
	arena := roundArenas.Get().(*sim.Arena)
	defer func() {
		arena.Reset()
		roundArenas.Put(arena)
	}()

	prep, err := prepareShares(boot, cfg, trial, secretRNG, rec)
	if err != nil {
		return nil, err
	}

	ledger := sim.NewRadioLedger(n)
	engine := sim.NewEngine()

	// --- Sharing phase over MiniCast. ---
	// Verifiable mode: flood the commitment vectors first (one broadcast
	// item per polynomial coefficient per coordinate per source).
	var commitDur time.Duration
	var commitRes *minicast.Result
	if cfg.Verifiable {
		cRes, cErr := minicast.RunArena(minicast.Config{
			Channel:      ch,
			Initiator:    cfg.Initiator,
			NTX:          prep.ntx,
			Items:        prep.commitItems,
			PayloadBytes: commitPayloadBytes,
			Failed:       cfg.Failed,
		}, radioRNG, ledger, engine, arena)
		if cErr != nil {
			return nil, fmt.Errorf("commitment phase: %w", cErr)
		}
		commitRes = cRes
		commitDur = commitRes.Duration
		rec.Record(prep.shareGenMax+commitDur, trace.KindPhase, -1,
			fmt.Sprintf("commitments: chain=%d", len(prep.commitItems)))
	}

	shareRes, err := minicast.RunArena(minicast.Config{
		Channel:      ch,
		Initiator:    cfg.Initiator,
		NTX:          prep.ntx,
		Items:        prep.shareItems,
		PayloadBytes: sharePayloadBytes(prep.vecLen),
		Failed:       cfg.Failed,
	}, radioRNG, ledger, engine, arena)
	if err != nil {
		return nil, fmt.Errorf("sharing phase: %w", err)
	}
	shareDetail := fmt.Sprintf("sharing: chain=%d ntx=%d", len(prep.shareItems), prep.ntx)
	if prep.vecMode {
		shareDetail = fmt.Sprintf("sharing: chain=%d ntx=%d veclen=%d", len(prep.shareItems), prep.ntx, prep.vecLen)
	}
	rec.Record(prep.shareGenMax+commitDur+shareRes.Duration, trace.KindPhase, -1, shareDetail)

	exec := &roundExec{
		boot:      boot,
		cfg:       cfg,
		trial:     trial,
		prep:      prep,
		rec:       rec,
		ledger:    ledger,
		engine:    engine,
		radioRNG:  radioRNG,
		commitDur: commitDur,
		shareDur:  shareRes.Duration,
		haveShare: func(dst, idx int) bool { return shareRes.Have[dst][idx] },
	}
	if commitRes != nil {
		exec.haveCommit = func(dst, idx int) bool { return commitRes.Have[dst][idx] }
	}
	return exec.finish(arena)
}

// failedRound builds the all-failure result used when too few complete sums
// exist for anyone to reconstruct.
func failedRound(expected []field.Element, n int, ledger *sim.RadioLedger,
	shareDur time.Duration, chainLen, ntx, vecLen int) *RoundResult {
	res := &RoundResult{
		Expected:        expected[0],
		ExpectedVec:     expected,
		Aggregate:       make([]field.Element, n),
		AggregateVec:    make([][]field.Element, n),
		NodeOK:          make([]bool, n),
		Latency:         make([]time.Duration, n),
		RadioOn:         make([]time.Duration, n),
		SharingDuration: shareDur,
		SharingChainLen: chainLen,
		NTXUsed:         ntx,

		VectorLen:         vecLen,
		SharePayloadBytes: sharePayloadBytes(vecLen),
	}
	var onSum time.Duration
	for i := 0; i < n; i++ {
		res.Latency[i] = -1
		res.RadioOn[i] = ledger.OnTime(i)
		onSum += res.RadioOn[i]
	}
	res.MeanRadioOn = onSum / time.Duration(n)
	return res
}
