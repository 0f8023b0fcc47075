package core

import (
	"fmt"
	"math/rand"
	"slices"
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

// sharePrep is one trial's working memory, from the compute prologue —
// the sources' readings and their sealed share vectors, the destinations'
// running sums — through the round epilogue. The chain layouts depend only
// on the bootstrap and live there, which is what lets the lane path run
// one chain pass for a whole trial batch.
//
// sharePreps are pooled (preps): prepare reuses the buffers of the last
// trial, so a warm trial allocates only its packet slab and what its
// RoundResult keeps.
type sharePrep struct {
	// expected is Σ readings, coordinate-wise; it becomes the result's
	// ExpectedVec, so each trial allocates its own.
	expected []field.Element
	// packets holds the sealed share vectors, item i of the bootstrap's
	// sharing chain at [i·size, (i+1)·size) for size =
	// seckey.SealedVectorSize(vecLen). It is the one per-trial buffer that
	// grows with sources × destinations, so each trial allocates its own
	// and putPrep drops it: idle pooled preps do not pin it.
	packets []byte
	// sums[dst·vecLen:(dst+1)·vecLen] is destination dst's running share
	// sum and contrib[dst] counts the shares in it. prepare folds in the
	// shares a source keeps because it is its own destination; finish
	// folds in the ones the sharing chain delivered.
	sums    []field.Element
	contrib []int
	// commits[src][k] is source src's Feldman commitment for coordinate k
	// (verifiable rounds only).
	commits     [][]*vss.Commitment
	shareGenMax time.Duration
	ntx         int
	vecLen      int
	vecMode     bool

	// Reused working memory. radioRNG is the trial's radio stream and
	// ledger its radio-on accounting, both live until the round is folded.
	radioRNG       *rand.Rand
	ledger         sim.RadioLedger
	blk            seckey.Block
	poly           field.Poly
	reading, evals []field.Element
	opened         []field.Element
	absorbCPU      []time.Duration
	holders        []int
	reconItems     []minicast.Item
	arrivals       []time.Duration
	held           []shamir.ShareVector
}

// preps pools sharePreps across rounds and trial workers. rngs pools the
// generators that are needed only briefly — the secret stream while
// prepare runs, bootstrap probe streams — which callers reseed to their
// stream with sim.ReseedRNG instead of allocating a ~5 KB source per
// stream. Both pools hold sim.NewRNG generators, whose source reseeds
// several times faster than a math/rand one.
var (
	preps = sync.Pool{New: func() any { return &sharePrep{radioRNG: sim.NewRNG(0, 0)} }}
	rngs  = sync.Pool{New: func() any { return sim.NewRNG(0, 0) }}
)

// putPrep returns p to preps without its packet slab.
func putPrep(p *sharePrep) {
	p.packets = nil
	preps.Put(p)
}

// resize returns s with length n, reusing its storage when it is large
// enough; the contents are not cleared.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// prepare runs the on-node compute prologue of one trial: seed the trial's
// secret stream into secretRNG and its radio stream into p.radioRNG, clear
// its ledger, draw the readings from the secret stream, split them at the
// destinations' points (Feldman-dealt in verifiable mode), and seal one
// vector per (source, destination) into packets.
func (p *sharePrep) prepare(boot *Bootstrap, cfg Config, trial uint64, secretRNG *rand.Rand, rec *trace.Recorder) error {
	n := boot.Channel.NumNodes()
	dests := boot.dests
	vecLen := cfg.effVectorLen()
	p.vecLen = vecLen
	// vecMode distinguishes an explicit vector deployment (VectorLen >= 1)
	// from the scalar default only where the OUTPUT must stay byte-stable
	// for historical configurations: trace event details.
	p.vecMode = cfg.VectorLen > 0
	p.ntx = cfg.NTXSharing
	if cfg.Protocol == S3 {
		p.ntx = boot.NTXFull
	}
	sim.ReseedRNG(secretRNG, cfg.ChannelSeed, trial*4+1)
	sim.ReseedRNG(p.radioRNG, cfg.ChannelSeed, trial*4+2)
	p.ledger.Reset(n)

	p.expected = make([]field.Element, vecLen)
	p.sums = resize(p.sums, n*vecLen)
	clear(p.sums)
	p.contrib = resize(p.contrib, n)
	clear(p.contrib)
	p.reading = resize(p.reading, vecLen)
	p.evals = resize(p.evals, len(dests)*vecLen)
	p.poly = resize(p.poly, cfg.Degree+1)
	p.packets = make([]byte, 0, len(boot.shareItems)*seckey.SealedVectorSize(vecLen))
	if cfg.Verifiable {
		p.commits = resize(p.commits, n)
	}
	p.shareGenMax = 0
	slot := 0
	for _, src := range cfg.Sources {
		reading := p.reading
		for k := range reading {
			reading[k] = field.New(secretRNG.Uint64())
		}
		if cfg.Secrets != nil {
			reading[0] = field.New(cfg.Secrets[src])
		}
		for k, secret := range reading {
			p.expected[k] = p.expected[k].Add(secret)
		}
		// evals[j·vecLen+k] is dests[j]'s share of reading[k].
		if cfg.Verifiable {
			cs := make([]*vss.Commitment, vecLen)
			for k, secret := range reading {
				vshares, commit, err := vss.Deal(secret, cfg.Degree, boot.destPoints, secretRNG)
				if err != nil {
					return err
				}
				cs[k] = commit
				for j, vs := range vshares {
					p.evals[j*vecLen+k] = vs.Value
				}
			}
			p.commits[src] = cs
		} else if err := shamir.SplitVecInto(p.evals, reading, cfg.Degree, boot.destPoints, secretRNG, p.poly); err != nil {
			return err
		}
		genCost := cfg.CPU.ShareGenerationVec(cfg.Degree, len(dests), vecLen)
		if cfg.Verifiable {
			genCost += time.Duration(vecLen) * cfg.CPU.VSSCommit(cfg.Degree)
		}
		if genCost > p.shareGenMax {
			p.shareGenMax = genCost
		}
		if rec != nil {
			genDetail := fmt.Sprintf("%d destinations", len(dests))
			if p.vecMode {
				genDetail = fmt.Sprintf("%d destinations, veclen=%d", len(dests), vecLen)
			}
			rec.Record(genCost, trace.KindShareGen, src, genDetail)
		}
		for j, dst := range dests {
			share := p.evals[j*vecLen : (j+1)*vecLen]
			if dst == src {
				if err := field.AccumulateVec(p.sums[dst*vecLen:(dst+1)*vecLen], share); err != nil {
					return err
				}
				p.contrib[dst]++
				continue
			}
			link, err := boot.link(src, dst)
			if err != nil {
				return err
			}
			ctx := seckey.PacketContext{
				Round:    uint32(trial),
				Sender:   uint16(src),
				Receiver: uint16(dst),
				Slot:     uint32(slot),
			}
			if p.packets, err = link.SealVectorTo(p.packets, &p.blk, ctx, share); err != nil {
				return err
			}
			slot++
		}
	}
	return nil
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
	for idx, owner := range e.boot.commitOwner {
		if owner == src && !e.haveCommit(dst, idx) {
			return false
		}
	}
	return true
}

// finish runs the round epilogue: per-destination aggregation, holder
// selection, the reconstruction chain (drawing from the trial's radio
// stream), and the per-node result fold. The arena backs the
// reconstruction chain's buffers; the returned RoundResult owns its memory.
func (e *roundExec) finish(arena *sim.Arena) (*RoundResult, error) {
	boot, cfg, p, rec := e.boot, e.cfg, e.prep, e.rec
	ch := boot.Channel
	n := ch.NumNodes()
	vecLen := p.vecLen
	ntx := p.ntx
	expected := p.expected
	ledger := e.ledger
	sum := func(dst int) []field.Element { return p.sums[dst*vecLen : (dst+1)*vecLen] }

	// --- Local aggregation at each destination (coordinate-wise). ---
	// Shares a source kept for itself are already in its sum.
	p.absorbCPU = resize(p.absorbCPU, n)
	absorbCPU := p.absorbCPU
	clear(absorbCPU)
	size := seckey.SealedVectorSize(vecLen)
	var verified, unverified int
	for idx, item := range boot.shareItems {
		dst := item.Dst
		if !e.haveShare(dst, idx) {
			continue
		}
		link, err := boot.link(item.Owner, dst)
		if err != nil {
			return nil, err
		}
		ctx := seckey.PacketContext{
			Round:    uint32(e.trial),
			Sender:   uint16(item.Owner),
			Receiver: uint16(dst),
			Slot:     uint32(idx),
		}
		values, err := link.OpenVectorTo(p.opened[:0], &p.blk, ctx, vecLen, p.packets[idx*size:(idx+1)*size])
		if err != nil {
			return nil, fmt.Errorf("open share vector %d: %w", idx, err)
		}
		p.opened = values
		if cfg.Verifiable {
			// Verify against the dealer's commitments when the commitment
			// chain reached this destination; absorb optimistically
			// otherwise (coverage is reported in the result).
			if e.hasFullCommitment(dst, item.Owner) {
				for k, v := range values {
					share := vss.Share{X: shamir.PublicPoint(dst), Value: v}
					if vErr := vss.Verify(share, p.commits[item.Owner][k]); vErr != nil {
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
		if err := field.AccumulateVec(sum(dst), values); err != nil {
			return nil, err
		}
		p.contrib[dst]++
	}
	for _, dst := range boot.dests {
		absorbCPU[dst] += cfg.CPU.SumAbsorbVec(p.contrib[dst], vecLen)
	}

	// Only destinations whose sum aggregates EVERY source re-share it; an
	// incomplete sum would poison interpolation. (The sum packet carries a
	// contribution count, so peers can tell.)
	holders := p.holders[:0]
	for _, dst := range boot.dests {
		if p.contrib[dst] == len(cfg.Sources) {
			holders = append(holders, dst)
			rec.Record(p.shareGenMax+e.commitDur+e.shareDur, trace.KindSumComplete, dst, "")
		} else if rec != nil {
			rec.Record(p.shareGenMax+e.commitDur+e.shareDur, trace.KindSumIncomplete, dst,
				fmt.Sprintf("%d/%d shares", p.contrib[dst], len(cfg.Sources)))
		}
	}
	p.holders = holders
	need := cfg.Degree + 1
	if len(holders) < need {
		// The round is unrecoverable network-wide; report total failure.
		return failedRound(expected, n, ledger, e.commitDur+e.shareDur,
			len(boot.shareItems), ntx, vecLen), nil
	}

	// --- Reconstruction phase over MiniCast (plaintext sum vectors). ---
	reconItems := p.reconItems[:0]
	for _, h := range holders {
		reconItems = append(reconItems, minicast.Item{Owner: h, Dst: -1})
	}
	p.reconItems = reconItems
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
	if rec != nil {
		rec.Record(p.shareGenMax+e.commitDur+e.shareDur+reconRes.Duration, trace.KindPhase, -1,
			fmt.Sprintf("reconstruction: chain=%d", len(reconItems)))
	}

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
		SharingChainLen: len(boot.shareItems),
		ReconChainLen:   len(reconItems),
		NTXUsed:         ntx,

		VectorLen:         vecLen,
		SharePayloadBytes: sharePayloadBytes(vecLen),

		VerifiedShares:   verified,
		UnverifiedShares: unverified,
	}
	// aggs backs every node's AggregateVec entry: one allocation per result.
	aggs := make([]field.Element, n*vecLen)
	var latSum, latMax time.Duration
	okCount := 0
	for node := 0; node < n; node++ {
		res.RadioOn[node] = ledger.OnTime(node)
		res.Latency[node] = -1

		// Collect the arrival times of the sums this node holds.
		arrivals, held := p.arrivals[:0], p.held[:0]
		for i, h := range holders {
			if !reconRes.Have[node][i] {
				continue
			}
			arrivals = append(arrivals, reconRes.RxAt[node][i])
			held = append(held, shamir.ShareVector{X: shamir.PublicPoint(h), Values: sum(h)})
		}
		p.arrivals, p.held = arrivals, held
		required := need
		if cfg.Protocol == S3 {
			required = len(holders) // naive: wait for strict all-to-all
		}
		if len(held) < required {
			if rec != nil {
				rec.Record(p.shareGenMax+e.commitDur+e.shareDur+reconRes.Duration,
					trace.KindAggregateFail, node,
					fmt.Sprintf("%d/%d sums", len(held), required))
			}
			continue
		}
		slices.Sort(arrivals)
		readyAt := arrivals[required-1]

		agg := aggs[node*vecLen : (node+1)*vecLen : (node+1)*vecLen]
		if err := shamir.ReconstructVecInto(agg, held, cfg.Degree); err != nil {
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
		lat := p.shareGenMax + e.commitDur + e.shareDur + absorbCPU[node] + readyAt +
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
// reading vector (shamir.SplitVecInto — one polynomial per coordinate,
// evaluated at the destinations' points only), ships ONE sealed vector per
// destination (seckey.Link.SealVectorTo over the link prepared at
// bootstrap — one MIC for the whole vector), destinations aggregate share
// vectors coordinate-wise, and reconstruction recovers the full aggregate
// vector from one cached Lagrange basis (shamir.ReconstructVecInto). The
// working memory of all of it is a pooled sharePrep. Scalar rounds are the
// L=1 degenerate case and produce results bit-identical to the historical
// one-share-per-packet path.
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

	// All three chain phases borrow from one arena; their results must stay
	// readable side by side until the round is folded, so the arena resets
	// once, on the way out.
	arena := roundArenas.Get().(*sim.Arena)
	prep := preps.Get().(*sharePrep)
	defer func() {
		arena.Reset()
		roundArenas.Put(arena)
		putPrep(prep)
	}()

	secretRNG := rngs.Get().(*rand.Rand)
	err := prep.prepare(boot, cfg, trial, secretRNG, rec)
	rngs.Put(secretRNG)
	if err != nil {
		return nil, err
	}
	radioRNG, ledger := prep.radioRNG, &prep.ledger
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
			Items:        boot.commitItems,
			PayloadBytes: commitPayloadBytes,
			Failed:       cfg.Failed,
		}, radioRNG, ledger, engine, arena)
		if cErr != nil {
			return nil, fmt.Errorf("commitment phase: %w", cErr)
		}
		commitRes = cRes
		commitDur = commitRes.Duration
		if rec != nil {
			rec.Record(prep.shareGenMax+commitDur, trace.KindPhase, -1,
				fmt.Sprintf("commitments: chain=%d", len(boot.commitItems)))
		}
	}

	shareRes, err := minicast.RunArena(minicast.Config{
		Channel:      ch,
		Initiator:    cfg.Initiator,
		NTX:          prep.ntx,
		Items:        boot.shareItems,
		PayloadBytes: sharePayloadBytes(prep.vecLen),
		Failed:       cfg.Failed,
	}, radioRNG, ledger, engine, arena)
	if err != nil {
		return nil, fmt.Errorf("sharing phase: %w", err)
	}
	if rec != nil {
		shareDetail := fmt.Sprintf("sharing: chain=%d ntx=%d", len(boot.shareItems), prep.ntx)
		if prep.vecMode {
			shareDetail = fmt.Sprintf("sharing: chain=%d ntx=%d veclen=%d", len(boot.shareItems), prep.ntx, prep.vecLen)
		}
		rec.Record(prep.shareGenMax+commitDur+shareRes.Duration, trace.KindPhase, -1, shareDetail)
	}

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
