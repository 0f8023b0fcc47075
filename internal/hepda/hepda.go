// Package hepda implements the baseline the paper argues against:
// Homomorphic-Encryption-based Privacy-Preserving Data Aggregation. Every
// node encrypts its reading under the collector's Paillier public key,
// ciphertexts are aggregated in-network along a convergecast tree
// (multiplication of ciphertexts = addition of plaintexts, so intermediate
// nodes never see readings), the sink decrypts the aggregate, and a Glossy
// flood disseminates the result.
//
// The trade the paper's introduction describes is directly visible here:
// the radio is barely used (short unicast bursts, radios off otherwise) but
// the computation is brutal for a constrained node — one Paillier encryption
// is a full 2048-bit modular exponentiation modulo N², tens of seconds of
// Cortex-M4 time — and the 512-byte ciphertexts fragment into five 802.15.4
// frames per hop. The cost model keeps crypto wall-time honest while the
// actual arithmetic runs on (faster) simulation hardware with a smaller but
// real key.
//
// Privacy model differences vs SSS (documented, not hidden): HE-PPDA needs a
// key-holding collector that learns the aggregate (and must be trusted not
// to decrypt stray individual ciphertexts it overhears before aggregation),
// whereas the SSS protocols are collector-free and tolerate up to k
// colluding nodes information-theoretically.
package hepda

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"iotmpc/internal/collect"
	"iotmpc/internal/glossy"
	"iotmpc/internal/paillier"
	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

// Errors returned by the package.
var (
	// ErrBadConfig is returned for invalid configuration.
	ErrBadConfig = errors.New("hepda: invalid configuration")
)

// MaxVectorLen caps Config.VectorLen at the SSS protocol's frame-budget
// bound, so every L an HE-vs-SSS comparison can ask of one side is valid
// on the other. The HE result flood (8·L+4 B) fits a PSDU at this bound
// with room to spare. The value must equal core.MaxVectorLen — hepda does
// not import core, so TestMaxVectorLenMatchesSSS pins the two together.
const MaxVectorLen = (phy.MaxPSDU - 9 - 4) / 8

// CostModel holds the modeled on-node costs of Paillier operations for the
// security-parameter key (the simulation itself runs a smaller real key for
// speed; metrics use these figures).
type CostModel struct {
	// Encrypt is one encryption: r^N mod N² dominates (g=N+1 trick makes
	// g^m cheap).
	Encrypt time.Duration
	// Decrypt is one decryption (c^λ mod N², CRT-optimized).
	Decrypt time.Duration
	// Aggregate is one ciphertext-ciphertext multiplication mod N².
	Aggregate time.Duration
}

// DefaultCostModel2048 returns software-bignum figures for a 64 MHz
// Cortex-M4 (nRF52840) at the standard 2048-bit modulus: a 4096-bit modular
// exponentiation with 4096-bit exponent costs tens of seconds without a
// public-key accelerator — the "computation-intensive" premise of the paper.
func DefaultCostModel2048() CostModel {
	return CostModel{
		Encrypt:   12 * time.Second,
		Decrypt:   6 * time.Second, // CRT halves the exponentiation work
		Aggregate: 2 * time.Millisecond,
	}
}

// Config describes one HE-PPDA deployment.
type Config struct {
	// Topology is the node layout.
	Topology topology.Topology
	// PHY parameterizes the radio; zero value selects DefaultParams.
	PHY phy.Params
	// Backend builds the radio model over the topology; nil selects the
	// log-distance channel (phy.LogDistanceFactory).
	Backend phy.Factory
	// Sources lists contributing nodes.
	Sources []int
	// Sink is the key-holding collector (default node 0).
	Sink int
	// SimKeyBits is the real key size used by the simulation arithmetic
	// (default 512 — fast but functionally identical).
	SimKeyBits int
	// ModelKeyBits is the security parameter the metrics are charged for
	// (default 2048; sets ciphertext wire size and CPU costs).
	ModelKeyBits int
	// MaxRetries bounds per-frame convergecast retries (default 12).
	MaxRetries int
	// VectorLen is the per-source reading vector length L (0 selects 1).
	// Homomorphic addition works per ciphertext, so an L-sensor reading
	// costs L FULL Paillier encryptions, L ciphertexts on the air per hop,
	// and L decryptions at the sink — there is no one-MIC-per-vector
	// amortization to be had, which is exactly the asymmetry the batched
	// SSS comparison (core.Config.VectorLen) measures against.
	VectorLen int
	// ChannelSeed freezes the radio environment.
	ChannelSeed int64
	// Cost overrides the CPU cost model; zero value selects
	// DefaultCostModel2048 scaled to ModelKeyBits.
	Cost CostModel
}

func (c Config) normalized() (Config, error) {
	n := c.Topology.NumNodes()
	if n < 2 {
		return c, fmt.Errorf("%w: %d nodes", ErrBadConfig, n)
	}
	if len(c.Sources) == 0 {
		return c, fmt.Errorf("%w: no sources", ErrBadConfig)
	}
	for _, s := range c.Sources {
		if s < 0 || s >= n {
			return c, fmt.Errorf("%w: source %d", ErrBadConfig, s)
		}
	}
	if c.Sink < 0 || c.Sink >= n {
		return c, fmt.Errorf("%w: sink %d", ErrBadConfig, c.Sink)
	}
	if c.PHY == (phy.Params{}) {
		c.PHY = phy.DefaultParams()
	}
	if c.SimKeyBits == 0 {
		c.SimKeyBits = 512
	}
	if c.SimKeyBits < 128 {
		return c, fmt.Errorf("%w: sim key %d bits", ErrBadConfig, c.SimKeyBits)
	}
	if c.ModelKeyBits == 0 {
		c.ModelKeyBits = 2048
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 12
	}
	if c.VectorLen < 0 {
		return c, fmt.Errorf("%w: negative vector length %d", ErrBadConfig, c.VectorLen)
	}
	if c.VectorLen == 0 {
		c.VectorLen = 1
	}
	if c.VectorLen > MaxVectorLen {
		return c, fmt.Errorf("%w: vector length %d exceeds %d", ErrBadConfig, c.VectorLen, MaxVectorLen)
	}
	if c.Cost == (CostModel{}) {
		base := DefaultCostModel2048()
		// Modexp scales ~cubically in the modulus size.
		scale := func(d time.Duration) time.Duration {
			r := float64(c.ModelKeyBits) / 2048
			return time.Duration(float64(d) * r * r * r)
		}
		c.Cost = CostModel{
			Encrypt:   scale(base.Encrypt),
			Decrypt:   scale(base.Decrypt),
			Aggregate: scale(base.Aggregate),
		}
	}
	return c, nil
}

// RoundResult reports one HE-PPDA aggregation round.
type RoundResult struct {
	// Expected is the plaintext sum over delivered sources (lost
	// contributions are excluded by protocol design, visible in
	// DeliveryRate). Coordinate 0 for vector rounds; ExpectedVec has all.
	Expected uint64
	// ExpectedVec / AggregateVec are the per-coordinate expected and
	// decrypted sums (length VectorLen).
	ExpectedVec []uint64
	// Aggregate is the sink's decrypted result (coordinate 0).
	Aggregate uint64
	// AggregateVec is the sink's decrypted result for every coordinate.
	AggregateVec []uint64
	// VectorLen is the effective reading-vector length of the round.
	VectorLen int
	// Correct reports Aggregate == Expected on every coordinate.
	Correct bool
	// DeliveryRate is the fraction of sources whose ciphertext reached the
	// sink.
	DeliveryRate float64
	// Latency[i] is when node i learned the aggregate (-1 if the result
	// flood missed it).
	Latency     []time.Duration
	MeanLatency time.Duration
	// RadioOn[i] is per-node radio time; MeanRadioOn averages it.
	RadioOn     []time.Duration
	MeanRadioOn time.Duration
	// CPUBusy[i] is per-node modeled crypto time.
	CPUBusy []time.Duration
	// CiphertextBytes is the modeled on-air ciphertext size.
	CiphertextBytes int
}

// Deployment is an HE-PPDA configuration prepared for rounds. Its radio,
// convergecast tree and collector key depend on the configuration alone
// (the key stream is seeded by ChannelSeed only), so Prepare builds them
// once, as core.RunBootstrap does for the SSS protocols, and every trial
// shares them read-only; concurrent RunRound calls are safe.
type Deployment struct {
	cfg  Config
	ch   phy.Radio
	tree *collect.Tree
	sk   *paillier.PrivateKey
}

// Prepare normalizes cfg, builds its radio, generates the collector's
// Paillier key and builds the convergecast tree toward the sink.
func Prepare(cfg Config) (*Deployment, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	ch, err := phy.Build(cfg.Backend, cfg.PHY, cfg.Topology.Positions, cfg.ChannelSeed)
	if err != nil {
		return nil, fmt.Errorf("radio backend for topology %q: %w", cfg.Topology.Name, err)
	}
	keyRNG := sim.NewRNG(cfg.ChannelSeed, 0xDEAD)
	sk, err := paillier.GenerateKey(cfg.SimKeyBits, keyRNG)
	if err != nil {
		return nil, fmt.Errorf("keygen: %w", err)
	}
	tree, err := collect.BuildTree(ch, cfg.Sink, 0.5)
	if err != nil {
		return nil, err
	}
	return &Deployment{cfg: cfg, ch: ch, tree: tree, sk: sk}, nil
}

// RunRound prepares cfg and executes one aggregation round. Callers that
// run many trials of one configuration should Prepare it once instead.
func RunRound(cfg Config, trial uint64) (*RoundResult, error) {
	d, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return d.RunRound(trial)
}

// RunRound executes one aggregation round. Trials with the same
// (config, trial) are reproducible.
func (d *Deployment) RunRound(trial uint64) (*RoundResult, error) {
	cfg, ch, sk := d.cfg, d.ch, d.sk
	n := ch.NumNodes()
	modelCipherBytes := 2 * cfg.ModelKeyBits / 8

	secretRNG := sim.NewRNG(cfg.ChannelSeed, trial*8+1)
	radioRNG := sim.NewRNG(cfg.ChannelSeed, trial*8+2)

	// Readings and encryption (all nodes encrypt in parallel; latency pays
	// the per-node L·Encrypt). A vector reading is L independent Paillier
	// ciphertexts — HE has no cheap way to pack coordinates the way one
	// CMAC covers a whole SSS share vector.
	vecLen := cfg.VectorLen
	readings := make(map[int][]uint64, len(cfg.Sources))
	ciphers := make(map[int][]*big.Int, len(cfg.Sources))
	cpu := make([]time.Duration, n)
	for _, src := range cfg.Sources {
		vs := make([]uint64, vecLen)
		cs := make([]*big.Int, vecLen)
		for k := 0; k < vecLen; k++ {
			v := secretRNG.Uint64() >> 24 // keep sums far below N
			vs[k] = v
			c, err := sk.Encrypt(new(big.Int).SetUint64(v), secretRNG)
			if err != nil {
				return nil, fmt.Errorf("encrypt at %d: %w", src, err)
			}
			cs[k] = c
		}
		readings[src] = vs
		ciphers[src] = cs
		cpu[src] += time.Duration(vecLen) * cfg.Cost.Encrypt
	}

	// Convergecast the ciphertexts with in-network aggregation; every hop
	// moves all L ciphertexts of the subtree's fold.
	ledger := sim.NewRadioLedger(n)
	engine := sim.NewEngine()
	colRes, err := collect.Run(collect.Config{
		Channel:      ch,
		Tree:         d.tree,
		MessageBytes: vecLen * modelCipherBytes,
		MaxRetries:   cfg.MaxRetries,
	}, radioRNG, ledger, engine)
	if err != nil {
		return nil, fmt.Errorf("convergecast: %w", err)
	}

	// Fold delivered ciphertexts per coordinate (the simulation folds at
	// the sink; the in-network folding has identical algebra and its
	// per-hop cost is charged to the forwarding nodes below).
	accs := make([]*big.Int, vecLen)
	for k := range accs {
		if accs[k], err = sk.Encrypt(big.NewInt(0), secretRNG); err != nil {
			return nil, err
		}
	}
	expected := make([]uint64, vecLen)
	delivered, total := 0, 0
	for _, src := range cfg.Sources {
		total++
		if src != cfg.Sink && !colRes.DeliveredToSink[src] {
			continue
		}
		delivered++
		for k := 0; k < vecLen; k++ {
			expected[k] += readings[src][k]
			if accs[k], err = sk.Add(accs[k], ciphers[src][k]); err != nil {
				return nil, err
			}
		}
	}
	// Charge the per-hop aggregation multiplies to every forwarding node.
	for node := 0; node < n; node++ {
		if node != cfg.Sink && colRes.LinkOK[node] {
			cpu[node] += time.Duration(vecLen) * cfg.Cost.Aggregate
		}
	}

	aggregate := make([]uint64, vecLen)
	for k := range accs {
		plain, err := sk.Decrypt(accs[k])
		if err != nil {
			return nil, fmt.Errorf("decrypt: %w", err)
		}
		aggregate[k] = plain.Uint64()
	}
	cpu[cfg.Sink] += time.Duration(vecLen) * cfg.Cost.Decrypt

	// Result dissemination: Glossy flood of the L 8-byte aggregates.
	flood, err := glossy.RunArena(glossy.Config{
		Channel:      ch,
		Initiator:    cfg.Sink,
		NTX:          6,
		PayloadBytes: 8*vecLen + 4,
	}, radioRNG, ledger, engine, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("result flood: %w", err)
	}

	res := &RoundResult{
		Expected:        expected[0],
		ExpectedVec:     expected,
		Aggregate:       aggregate[0],
		AggregateVec:    aggregate,
		VectorLen:       vecLen,
		DeliveryRate:    float64(delivered) / float64(total),
		Latency:         make([]time.Duration, n),
		RadioOn:         make([]time.Duration, n),
		CPUBusy:         cpu,
		CiphertextBytes: modelCipherBytes,
	}
	res.Correct = true
	for k := range aggregate {
		if aggregate[k] != expected[k] {
			res.Correct = false
			break
		}
	}

	preFlood := time.Duration(vecLen)*cfg.Cost.Encrypt + colRes.Duration +
		time.Duration(vecLen)*cfg.Cost.Decrypt
	var latSum time.Duration
	latCount := 0
	var onSum time.Duration
	for node := 0; node < n; node++ {
		res.RadioOn[node] = ledger.OnTime(node)
		onSum += res.RadioOn[node]
		if !flood.Received[node] {
			res.Latency[node] = -1
			continue
		}
		res.Latency[node] = preFlood + flood.Latency[node]
		latSum += res.Latency[node]
		latCount++
	}
	if latCount > 0 {
		res.MeanLatency = latSum / time.Duration(latCount)
	}
	res.MeanRadioOn = onSum / time.Duration(n)
	return res, nil
}
