// Package core implements the paper's contribution: Shamir Secret Sharing
// hosted on concurrent-transmission data sharing, in two variants.
//
// S3 ("naive SSS over MiniCast"): every source node evaluates its polynomial
// at all n public points and ships one encrypted share to every node, so the
// sharing-phase chain has s·n sub-slots (O(n²) when every node is a source).
// Both phases run at an NTX high enough for full network coverage, derived
// during bootstrapping; a node computes the aggregate only once it holds the
// public-point sums of all n nodes (strict all-to-all).
//
// S4 ("scalable SSS"): a low-degree polynomial (k ≈ ⌊n/3⌋) means only k+1
// share destinations are required. Bootstrapping profiles which nodes are
// reliably reachable from every source at a low NTX and fixes a common
// destination set D (|D| = k+1 plus configurable slack for fault tolerance).
// The sharing chain shrinks to s·|D| sub-slots and runs at the low NTX; in
// the reconstruction phase only D nodes re-share sums, any k+1 of which let
// a node interpolate the aggregate — so nodes stop listening (radio off) as
// soon as they hold k+1 sums.
//
// Every round moves real ciphertext: shares are encrypted with pairwise
// AES-128 keys (sealed/opened via internal/seckey), and the reported
// aggregate is verified against the plaintext sum.
package core

import (
	"errors"
	"fmt"

	"iotmpc/internal/phy"
	"iotmpc/internal/seckey"
	"iotmpc/internal/topology"
)

// Protocol selects the SSS realization.
type Protocol int

// Protocol variants evaluated in the paper.
const (
	// S3 is the naive realization (full chain, full-coverage NTX).
	S3 Protocol = iota + 1
	// S4 is the scalable realization (trimmed chain, low NTX, fault-tolerant
	// reconstruction).
	S4
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case S3:
		return "S3"
	case S4:
		return "S4"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Errors returned by the package.
var (
	// ErrBadConfig is returned for invalid protocol configuration.
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrBootstrap is returned when bootstrapping cannot satisfy the
	// requested parameters (e.g. not enough commonly reachable destinations).
	ErrBootstrap = errors.New("core: bootstrap infeasible")
)

// Config describes one deployment of the protocol on a testbed.
type Config struct {
	// Topology is the node layout (FlockLab, DCube, or synthetic).
	Topology topology.Topology
	// PHY parameterizes the radio model; zero value selects DefaultParams.
	PHY phy.Params
	// Backend builds the radio model over the topology; nil selects the
	// log-distance + shadowing channel (phy.LogDistanceFactory) the paper
	// evaluates under. Alternatives: phy.UnitDiskFactory for idealized
	// in-radius reception, trace.Factory for replaying a recorded per-link
	// PRR matrix.
	Backend phy.Factory
	// Protocol selects S3 or S4.
	Protocol Protocol
	// Sources lists the node indices contributing secrets. The paper sweeps
	// this ("number of source nodes"); all nodes always participate as share
	// holders and relays.
	Sources []int
	// Degree is the polynomial degree k (collusion threshold). The paper
	// uses ⌊n/3⌋; Degree 0 selects that default.
	Degree int
	// NTXSharing is the sharing/reconstruction NTX for S4 (paper: 6 on
	// FlockLab, 5 on DCube). Ignored by S3, which derives a full-coverage
	// NTX during bootstrapping. 0 selects 6.
	NTXSharing int
	// DestSlack is the number of extra destinations beyond degree+1 kept in
	// S4's common destination set, providing reconstruction fault tolerance.
	DestSlack int
	// Initiator anchors the CT floods (default node 0).
	Initiator int
	// MasterSeed commissions the network key material.
	MasterSeed uint64
	// ChannelSeed freezes the shadowing realization.
	ChannelSeed int64
	// CPU models on-node computation latency; zero value selects
	// DefaultCPUModel.
	CPU CPUModel
	// Failed marks nodes crashed for the whole round (fault injection).
	// Failed nodes neither transmit nor receive; sources must not be failed.
	// Nil means no failures. Bootstrapping ignores failures — they model
	// crashes that happen after commissioning.
	Failed []bool
	// NoEarlyOff disables S4's early radio-off in the reconstruction phase
	// (an ablation knob: it isolates what early-off saves in radio-on time).
	NoEarlyOff bool
	// Secrets optionally fixes each source's secret (e.g. actual sensor
	// readings). Keys must cover every source. Nil draws random secrets per
	// round, which is what the evaluation sweeps use.
	Secrets map[int]uint64
	// Verifiable enables Feldman VSS (internal/vss): sources commit to
	// their polynomials, commitments are flooded in a preliminary MiniCast
	// round, and destinations verify every share before absorbing it. This
	// hardens the semi-honest model at a quantifiable latency/radio cost
	// (see BenchmarkAblationVerification).
	Verifiable bool
	// VectorLen is the per-source reading vector length L (multi-sensor
	// workloads): each source shares L secrets per round and ships ONE
	// sealed vector packet of 8·L bytes + one MIC per destination, instead
	// of L scalar packets. 0 selects the scalar single-reading round (the
	// historical behavior; identical to VectorLen 1 in every reported
	// metric). Bounded by MaxVectorLen so a sub-slot stays one 802.15.4
	// frame.
	VectorLen int
}

// Normalized returns the configuration with defaults filled (degree ⌊n/3⌋,
// NTX 6, CPU model, PHY params) and validation applied — the exact
// parameters a bootstrap of this Config would run with. CLIs use it to
// report effective settings without duplicating the defaulting rules.
func (c Config) Normalized() (Config, error) { return c.normalized() }

// normalized fills defaults and validates.
func (c Config) normalized() (Config, error) {
	n := c.Topology.NumNodes()
	if n < 2 {
		return c, fmt.Errorf("%w: %d nodes", ErrBadConfig, n)
	}
	if c.PHY == (phy.Params{}) {
		c.PHY = phy.DefaultParams()
	}
	if c.Protocol != S3 && c.Protocol != S4 {
		return c, fmt.Errorf("%w: protocol %v", ErrBadConfig, c.Protocol)
	}
	if len(c.Sources) == 0 {
		return c, fmt.Errorf("%w: no sources", ErrBadConfig)
	}
	seen := make(map[int]struct{}, len(c.Sources))
	for _, s := range c.Sources {
		if s < 0 || s >= n {
			return c, fmt.Errorf("%w: source %d out of range", ErrBadConfig, s)
		}
		if _, dup := seen[s]; dup {
			return c, fmt.Errorf("%w: duplicate source %d", ErrBadConfig, s)
		}
		seen[s] = struct{}{}
	}
	if c.Degree == 0 {
		c.Degree = n / 3
	}
	if c.Degree < 1 || c.Degree+1 > n {
		return c, fmt.Errorf("%w: degree %d with %d nodes", ErrBadConfig, c.Degree, n)
	}
	if c.NTXSharing == 0 {
		c.NTXSharing = 6
	}
	if c.NTXSharing < 1 {
		return c, fmt.Errorf("%w: NTX %d", ErrBadConfig, c.NTXSharing)
	}
	if c.DestSlack < 0 {
		return c, fmt.Errorf("%w: negative slack", ErrBadConfig)
	}
	if c.Degree+1+c.DestSlack > n {
		return c, fmt.Errorf("%w: degree+1+slack = %d exceeds %d nodes",
			ErrBadConfig, c.Degree+1+c.DestSlack, n)
	}
	if c.Initiator < 0 || c.Initiator >= n {
		return c, fmt.Errorf("%w: initiator %d", ErrBadConfig, c.Initiator)
	}
	if c.Failed != nil {
		if len(c.Failed) != n {
			return c, fmt.Errorf("%w: Failed has %d entries for %d nodes", ErrBadConfig, len(c.Failed), n)
		}
		for _, s := range c.Sources {
			if c.Failed[s] {
				return c, fmt.Errorf("%w: source %d is marked failed", ErrBadConfig, s)
			}
		}
		if c.Failed[c.Initiator] {
			return c, fmt.Errorf("%w: initiator %d is marked failed", ErrBadConfig, c.Initiator)
		}
	}
	if c.VectorLen < 0 {
		return c, fmt.Errorf("%w: negative vector length %d", ErrBadConfig, c.VectorLen)
	}
	if c.VectorLen > MaxVectorLen {
		return c, fmt.Errorf("%w: vector length %d exceeds %d (8·L+%dB MIC must fit one %dB frame)",
			ErrBadConfig, c.VectorLen, MaxVectorLen, seckey.TagSize, phy.MaxPSDU)
	}
	if c.CPU == (CPUModel{}) {
		c.CPU = DefaultCPUModel()
	}
	if c.Secrets != nil {
		for _, s := range c.Sources {
			if _, ok := c.Secrets[s]; !ok {
				return c, fmt.Errorf("%w: no secret for source %d", ErrBadConfig, s)
			}
		}
	}
	return c, nil
}

// buildRadio constructs the configured radio backend over the topology.
func (c Config) buildRadio() (phy.Radio, error) {
	r, err := phy.Build(c.Backend, c.PHY, c.Topology.Positions, c.ChannelSeed)
	if err != nil {
		return nil, fmt.Errorf("core: radio backend for topology %q: %w", c.Topology.Name, err)
	}
	return r, nil
}

// Wire format sizes (bytes) for chain sub-slot payloads: a protocol header
// (round counter, chain position, owner id) plus the value.
const (
	headerBytes = 9
	// commitPayloadBytes carries one 512-bit Feldman commitment coefficient
	// in the verifiable mode's preliminary chain. 64B + header fits one
	// 802.15.4 frame.
	commitPayloadBytes = headerBytes + 64
)

// MaxVectorLen is the largest Config.VectorLen a sharing sub-slot can carry:
// header + 8·L ciphertext + MIC-32 must fit one 802.15.4 PSDU.
const MaxVectorLen = (phy.MaxPSDU - headerBytes - seckey.TagSize) / 8

// sharePayloadBytes is the sharing-phase sub-slot payload for a vecLen-
// element reading vector: header + AES-CTR ciphertext of the packed vector +
// one MIC-32 for the whole vector. vecLen 1 is the historical scalar size.
func sharePayloadBytes(vecLen int) int {
	return headerBytes + seckey.SealedVectorSize(vecLen)
}

// sumPayloadBytes is the reconstruction-phase payload: header + vecLen plain
// 8-byte sums + 2-byte contribution count (reconstruction runs in plaintext,
// as in the paper).
func sumPayloadBytes(vecLen int) int {
	return headerBytes + 8*vecLen + 2
}

// effVectorLen is the round's effective vector length: VectorLen 0 (the
// scalar default) behaves as length 1.
func (c Config) effVectorLen() int {
	if c.VectorLen > 0 {
		return c.VectorLen
	}
	return 1
}
