package experiment

import (
	"fmt"
	"math"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/metrics"
	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

// The scenario engine sweeps the protocol over a declarative parameter
// matrix — backend × network size × threshold × loss rate × NTX × slack ×
// failure rate × verifiable mode × protocol — and fans the resulting
// scenarios across a worker pool (see Runner). Each scenario is fully
// self-contained (own topology, own bootstrap, own RNG streams rooted in a
// per-scenario seed derived from the matrix seed and the scenario's index),
// so a parallel run produces byte-identical results to a sequential one:
// the worker count is a throughput knob, never a semantics knob.

// officeDensity is the node density (nodes per m²) used when synthesizing
// deployments of a requested size: ~26 nodes in a 60×48 m office, matching
// the FlockLab-like setting of the scalability study. Constant density means
// bigger networks get physically deeper, which is what stresses multi-hop
// protocols.
const officeDensity = 0.009

// officeDeployment synthesizes an n-node random-geometric testbed at
// officeDensity over a 1.6:1 rectangle — the shared deployment model of the
// scenario engine and the scalability study.
func officeDeployment(n int, seed int64) (topology.Topology, error) {
	area := float64(n) / officeDensity
	w := math.Sqrt(area * 1.6)
	h := area / w
	return topology.RandomGeometric(n, w, h, seed)
}

// probeLayout synthesizes the office-deployment node positions backend
// validation probes run against. Probing with a realistic spread layout
// (rather than n nodes piled at the origin, which makes every pair
// zero-distance and lets a degenerate unit-disk or trace backend pass) means
// expansion-time validation sees geometry of the same character the
// scenarios themselves will. The probe seed is fixed: validation must not
// depend on the matrix seed.
func probeLayout(n int) ([]phy.Position, error) {
	tb, err := officeDeployment(n, 0)
	if err != nil {
		return nil, err
	}
	return tb.Positions, nil
}

// DefaultLossRate is the loss axis default when Matrix.LossRates is nil: a
// moderate per-phase ambient interference burst probability representative
// of an office 2.4 GHz environment (both FlockLab and D-Cube document WiFi/
// Bluetooth bursts of this order). It is the loss axis's own documented
// default — scenarios sweep it independently of whatever the PHY model's
// parameter defaults happen to be.
const DefaultLossRate = 0.2

// failureSeedStream is the RNG stream (off Scenario.Seed) that draws which
// nodes crash under failure injection. It is distinct from the streams the
// topology and channel layers consume, so adding failures never perturbs the
// deployment or shadowing realization of an otherwise-identical scenario.
const failureSeedStream = 0xFA17ED

// Scenario is one fully-specified cell of a sweep matrix.
type Scenario struct {
	// Index is the scenario's position in the expanded matrix; results are
	// reported in this order regardless of execution interleaving.
	Index int `json:"index"`
	// Backend is the radio-model spec (see ParseBackend); "" selects
	// DefaultBackend, the log-distance channel.
	Backend string `json:"backend,omitempty"`
	// Testbed optionally names a fixed deployment (see NamedTestbed:
	// flocklab, dcube, grid, line) instead of the synthesized office layout.
	// When set, Nodes must be 0 or match the testbed's size. This is how
	// cmd/mpcsim routes single-testbed runs through the Runner.
	Testbed string `json:"testbed,omitempty"`
	// Nodes is the deployment size (random-geometric at officeDensity when
	// Testbed is empty).
	Nodes int `json:"nodes"`
	// SourceCount is the number of source nodes, spread across the alive
	// nodes; 0 selects all alive nodes (the matrix default).
	SourceCount int `json:"sources,omitempty"`
	// Degree is the polynomial degree k; 0 selects the paper's ⌊n/3⌋.
	Degree int `json:"degree"`
	// LossRate is the per-phase interference burst probability in [0, 1) —
	// the knob that degrades the radio environment beyond the default model.
	LossRate float64 `json:"lossRate"`
	// Protocol selects S3 or S4.
	Protocol core.Protocol `json:"protocol"`
	// NTXSharing is S4's sharing/reconstruction NTX (0 selects 6).
	NTXSharing int `json:"ntxSharing"`
	// DestSlack is S4's extra-destination count.
	DestSlack int `json:"destSlack"`
	// FailureRate is the fraction of nodes crashed for every round of the
	// scenario, in [0, 1). ⌊rate·n⌋ nodes (never the initiator) are drawn
	// from a dedicated RNG stream off Seed; crashed nodes neither transmit
	// nor receive, and sources are spread over the survivors.
	FailureRate float64 `json:"failureRate,omitempty"`
	// Verifiable enables Feldman-VSS share verification (core.Config
	// .Verifiable): commitments flooded in a preliminary chain, every share
	// checked before it is absorbed.
	Verifiable bool `json:"verifiable,omitempty"`
	// VectorLen is the per-source reading-vector length L (core.Config
	// .VectorLen): each source shares L readings per round inside ONE
	// sealed vector packet per destination. 0 selects the historical
	// scalar round; omitempty keeps pre-vector scenario encodings — and
	// therefore their cache keys — unchanged.
	VectorLen int `json:"vectorLen,omitempty"`
	// Iterations is the Monte-Carlo repetition count.
	Iterations int `json:"iterations"`
	// Seed roots every random choice of the scenario (topology, shadowing,
	// secrets, fading, failure draw). Derived deterministically from the
	// matrix seed.
	Seed int64 `json:"seed"`
}

// Matrix declares a sweep as per-axis value lists; Scenarios expands the
// cross product. Nil axes select defaults, so the zero value plus NodeCounts
// and Iterations is a runnable spec.
//
// The JSON encoding is the sweep service's wire format: POST /v1/jobs accepts
// exactly these field names, and Validate reports violations against them so
// API rejections point at the offending field.
type Matrix struct {
	// Backends is the radio-model axis (specs per ParseBackend); nil selects
	// {DefaultBackend}.
	Backends []string `json:"backends,omitempty"`
	// NodeCounts is the network-size axis (each >= 6). Required.
	NodeCounts []int `json:"nodeCounts"`
	// Degrees is the threshold axis; nil selects {0} (= ⌊n/3⌋).
	Degrees []int `json:"degrees,omitempty"`
	// LossRates is the interference axis; nil selects the default PHY burst
	// probability. Values must lie in [0, 1).
	LossRates []float64 `json:"lossRates,omitempty"`
	// NTXSharings is S4's sharing/reconstruction NTX axis; nil selects {0}
	// (= the protocol default, 6).
	NTXSharings []int `json:"ntxSharings,omitempty"`
	// DestSlacks is S4's extra-destination axis; nil selects {0}.
	DestSlacks []int `json:"destSlacks,omitempty"`
	// FailureRates is the crash-injection axis (fraction of nodes failed per
	// scenario, in [0, 1)); nil selects {0} (no failures).
	FailureRates []float64 `json:"failureRates,omitempty"`
	// Verifiable is the VSS-mode axis; nil selects {false}. {false, true}
	// sweeps the verification overhead head-to-head.
	Verifiable []bool `json:"verifiable,omitempty"`
	// VectorLens is the reading-vector-length axis; nil selects {0} (the
	// scalar round). Values must lie in [0, core.MaxVectorLen].
	VectorLens []int `json:"vectorLens,omitempty"`
	// Protocols is the protocol axis; nil selects {S3, S4}.
	Protocols []core.Protocol `json:"protocols,omitempty"`
	// Iterations is the Monte-Carlo repetition count per scenario. Required.
	Iterations int `json:"iterations"`
	// Seed roots the whole sweep; per-scenario seeds are derived from it.
	Seed int64 `json:"seed"`
}

// Validate checks a matrix as an API submission: every violated constraint
// is reported against the JSON field name that carries it, so a service can
// turn the error straight into an actionable 400 instead of letting a bad
// spec panic (or ErrBadSpec) deep inside the Runner. It deliberately skips
// the backend probe simulation Scenarios performs — Validate is the cheap
// front door; expansion still re-checks everything it always did.
func (m Matrix) Validate() error {
	if len(m.NodeCounts) == 0 {
		return fmt.Errorf("%w: nodeCounts: required (at least one network size)", ErrBadSpec)
	}
	for _, n := range m.NodeCounts {
		if n < 6 {
			return fmt.Errorf("%w: nodeCounts: %d too few (need >= 6)", ErrBadSpec, n)
		}
	}
	if m.Iterations <= 0 {
		return fmt.Errorf("%w: iterations: %d (need >= 1)", ErrBadSpec, m.Iterations)
	}
	for _, b := range m.Backends {
		if _, err := ParseBackend(b); err != nil {
			return fmt.Errorf("%w: backends: %q: %v", ErrBadSpec, b, err)
		}
	}
	for _, lr := range m.LossRates {
		if lr < 0 || lr >= 1 {
			return fmt.Errorf("%w: lossRates: %v outside [0,1)", ErrBadSpec, lr)
		}
	}
	for _, d := range m.Degrees {
		if d < 0 {
			return fmt.Errorf("%w: degrees: %d negative", ErrBadSpec, d)
		}
	}
	for _, ntx := range m.NTXSharings {
		if ntx < 0 {
			return fmt.Errorf("%w: ntxSharings: %d negative", ErrBadSpec, ntx)
		}
	}
	for _, slack := range m.DestSlacks {
		if slack < 0 {
			return fmt.Errorf("%w: destSlacks: %d negative", ErrBadSpec, slack)
		}
	}
	for _, fr := range m.FailureRates {
		if fr < 0 || fr >= 1 {
			return fmt.Errorf("%w: failureRates: %v outside [0,1)", ErrBadSpec, fr)
		}
	}
	for _, vl := range m.VectorLens {
		if vl < 0 || vl > core.MaxVectorLen {
			return fmt.Errorf("%w: vectorLens: %d outside [0,%d]", ErrBadSpec, vl, core.MaxVectorLen)
		}
	}
	for _, p := range m.Protocols {
		if p != core.S3 && p != core.S4 {
			return fmt.Errorf("%w: protocols: unknown protocol %d (S3=%d, S4=%d)",
				ErrBadSpec, int(p), int(core.S3), int(core.S4))
		}
	}
	return nil
}

// Scenarios expands the matrix into the ordered scenario list. Expansion
// order is backend → nodes → degree → loss rate → NTX → slack → failure rate
// → verifiable → vector length → protocol (protocol innermost, so paired protocol
// comparisons sit adjacent in reports; backend outermost, so a single-
// backend matrix keeps the indices — and therefore the derived seeds — it
// had before the backend axis existed). Every axis added since then defaults
// to a single value, so matrices that don't sweep it keep their pre-existing
// index order and derived seeds. Each scenario's seed is
// sim.DeriveSeed(matrix seed, index): reordering or extending an axis
// re-seeds affected scenarios, but a given (matrix, index) pair is stable
// across runs and worker counts.
func (m Matrix) Scenarios() ([]Scenario, error) {
	if len(m.NodeCounts) == 0 {
		return nil, fmt.Errorf("%w: no node counts", ErrBadSpec)
	}
	if m.Iterations <= 0 {
		return nil, fmt.Errorf("%w: iterations %d", ErrBadSpec, m.Iterations)
	}
	backends := m.Backends
	if len(backends) == 0 {
		backends = []string{DefaultBackend}
	}
	degrees := m.Degrees
	if len(degrees) == 0 {
		degrees = []int{0}
	}
	lossRates := m.LossRates
	if len(lossRates) == 0 {
		lossRates = []float64{DefaultLossRate}
	}
	ntxValues := m.NTXSharings
	if len(ntxValues) == 0 {
		ntxValues = []int{0}
	}
	slacks := m.DestSlacks
	if len(slacks) == 0 {
		slacks = []int{0}
	}
	failureRates := m.FailureRates
	if len(failureRates) == 0 {
		failureRates = []float64{0}
	}
	verifiables := m.Verifiable
	if len(verifiables) == 0 {
		verifiables = []bool{false}
	}
	vectorLens := m.VectorLens
	if len(vectorLens) == 0 {
		vectorLens = []int{0}
	}
	protocols := m.Protocols
	if len(protocols) == 0 {
		protocols = []core.Protocol{core.S3, core.S4}
	}
	for _, n := range m.NodeCounts {
		if n < 6 {
			return nil, fmt.Errorf("%w: %d nodes too few (need >= 6)", ErrBadSpec, n)
		}
	}
	for _, lr := range lossRates {
		if lr < 0 || lr >= 1 {
			return nil, fmt.Errorf("%w: loss rate %f outside [0,1)", ErrBadSpec, lr)
		}
	}
	for _, ntx := range ntxValues {
		if ntx < 0 {
			return nil, fmt.Errorf("%w: NTX %d negative", ErrBadSpec, ntx)
		}
	}
	for _, slack := range slacks {
		if slack < 0 {
			return nil, fmt.Errorf("%w: destination slack %d negative", ErrBadSpec, slack)
		}
	}
	for _, fr := range failureRates {
		if fr < 0 || fr >= 1 {
			return nil, fmt.Errorf("%w: failure rate %f outside [0,1)", ErrBadSpec, fr)
		}
	}
	for _, vl := range vectorLens {
		if vl < 0 || vl > core.MaxVectorLen {
			return nil, fmt.Errorf("%w: vector length %d outside [0,%d]", ErrBadSpec, vl, core.MaxVectorLen)
		}
	}
	// Probe layouts depend only on the node count; synthesize each once even
	// when several backends probe against it.
	layouts := make(map[int][]phy.Position, len(m.NodeCounts))
	for _, b := range backends {
		// Catch typos, unreadable trace files, and backend/axis conflicts
		// (e.g. a trace whose fixed node count a NodeCounts entry cannot
		// satisfy) at expansion time, before any simulation work is spent.
		factory, err := ParseBackend(b)
		if err != nil {
			return nil, err
		}
		if factory == nil {
			continue
		}
		for _, n := range m.NodeCounts {
			// Probe with a synthesized spread layout, not n zero positions:
			// all nodes at the origin make every link zero-distance, which a
			// degenerate backend configuration can pass while behaving
			// uselessly on the real deployment.
			layout, ok := layouts[n]
			if !ok {
				if layout, err = probeLayout(n); err != nil {
					return nil, err
				}
				layouts[n] = layout
			}
			if _, err := factory(phy.DefaultParams(), layout, 0); err != nil {
				return nil, fmt.Errorf("%w: backend %q with %d nodes: %v", ErrBadSpec, b, n, err)
			}
		}
	}

	size := len(backends) * len(m.NodeCounts) * len(degrees) * len(lossRates) *
		len(ntxValues) * len(slacks) * len(failureRates) * len(verifiables) *
		len(vectorLens) * len(protocols)
	out := make([]Scenario, 0, size)
	for _, backend := range backends {
		for _, nodes := range m.NodeCounts {
			for _, degree := range degrees {
				for _, lr := range lossRates {
					for _, ntx := range ntxValues {
						for _, slack := range slacks {
							for _, fr := range failureRates {
								for _, verifiable := range verifiables {
									for _, vl := range vectorLens {
										for _, proto := range protocols {
											idx := len(out)
											out = append(out, Scenario{
												Index:       idx,
												Backend:     backend,
												Nodes:       nodes,
												Degree:      degree,
												LossRate:    lr,
												Protocol:    proto,
												NTXSharing:  ntx,
												DestSlack:   slack,
												FailureRate: fr,
												Verifiable:  verifiable,
												VectorLen:   vl,
												Iterations:  m.Iterations,
												Seed:        sim.DeriveSeed(m.Seed, uint64(idx)),
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// ScenarioResult is one scenario's aggregated metrics.
type ScenarioResult struct {
	Scenario Scenario `json:"scenario"`
	// LatencyMS summarizes mean end-to-end latency over successful rounds.
	LatencyMS metrics.Summary `json:"latencyMs"`
	// RadioOnMS summarizes mean per-node radio-on time over all rounds.
	RadioOnMS metrics.Summary `json:"radioOnMs"`
	// SuccessRate is the fraction of node-rounds with a correct aggregate.
	SuccessRate float64 `json:"successRate"`
	// FailedRounds counts rounds in which no node reconstructed at all.
	FailedRounds int `json:"failedRounds"`
	// SharingChainLen is the sharing-phase chain length in sub-slots —
	// constant across a scenario's trials (it depends only on the bootstrap
	// and the source set), captured from trial 0. One sealed vector per
	// (source, destination) ride these sub-slots, so the length does NOT
	// grow with VectorLen; that is the batched-sealing win the CI size gate
	// asserts. omitempty: entries cached before the field existed stay
	// decodable and re-encodable unchanged.
	SharingChainLen int `json:"sharingChainLen,omitempty"`
	// ShareAirBytes is the on-air payload volume of one sharing-chain pass:
	// SharingChainLen × the per-sub-slot payload (header + 8·L + one MIC).
	ShareAirBytes int `json:"shareAirBytes,omitempty"`

	// Cached is set by the Runner when the result was served from the result
	// cache rather than computed. Runtime metadata: excluded from JSON, so
	// persisted entries and JSONL output are identical either way.
	Cached bool `json:"-"`
}

// RunScenario executes one scenario sequentially: synthesize the deployment,
// bootstrap once, then run the Monte-Carlo trials. All randomness descends
// from Scenario.Seed, so repeated calls are bit-identical.
func RunScenario(sc Scenario) (ScenarioResult, error) {
	backend, err := ParseBackend(sc.Backend)
	if err != nil {
		return ScenarioResult{}, err
	}
	return runScenario(sc, backend, 1, 1)
}

// scenarioDeployment resolves the scenario's topology: a named fixed testbed
// when Testbed is set, the synthesized office layout otherwise.
func scenarioDeployment(sc Scenario) (topology.Topology, error) {
	if sc.Testbed != "" {
		tb, err := NamedTestbed(sc.Testbed)
		if err != nil {
			return topology.Topology{}, err
		}
		if sc.Nodes != 0 && sc.Nodes != tb.NumNodes() {
			return topology.Topology{}, fmt.Errorf("%w: testbed %q has %d nodes, scenario says %d",
				ErrBadSpec, sc.Testbed, tb.NumNodes(), sc.Nodes)
		}
		return tb, nil
	}
	if sc.Nodes < 6 {
		return topology.Topology{}, fmt.Errorf("%w: %d nodes", ErrBadSpec, sc.Nodes)
	}
	return officeDeployment(sc.Nodes, sc.Seed)
}

// scenarioRoles draws the failure mask and source set: ⌊rate·n⌋ crashed
// nodes from the scenario's failure stream (the initiator, node 0, never
// crashes), and SourceCount sources (0 = all) spread across the survivors.
func scenarioRoles(sc Scenario, n int) (failed []bool, sources []int, err error) {
	if sc.FailureRate < 0 || sc.FailureRate >= 1 {
		return nil, nil, fmt.Errorf("%w: failure rate %f outside [0,1)", ErrBadSpec, sc.FailureRate)
	}
	alive := make([]int, 0, n)
	// Floor with an epsilon so exactly-representable products (0.58·50 = 29)
	// don't truncate one short of the documented ⌊rate·n⌋.
	if crash := int(math.Floor(sc.FailureRate*float64(n) + 1e-9)); crash > 0 {
		failed = make([]bool, n)
		rng := sim.NewRNG(sc.Seed, failureSeedStream)
		for _, idx := range rng.Perm(n) {
			if crash == 0 {
				break
			}
			if idx == 0 {
				continue // the initiator must stay up
			}
			failed[idx] = true
			crash--
		}
		for i := 0; i < n; i++ {
			if !failed[i] {
				alive = append(alive, i)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			alive = append(alive, i)
		}
	}
	srcCount := sc.SourceCount
	if srcCount == 0 {
		srcCount = len(alive)
	}
	spread, err := SpreadSources(len(alive), srcCount)
	if err != nil {
		return nil, nil, err
	}
	sources = make([]int, len(spread))
	for i, idx := range spread {
		sources[i] = alive[idx]
	}
	return failed, sources, nil
}

// trialBlock is how many Monte-Carlo trials are dispatched per fan-out batch
// when trial-level parallelism is on: large enough to amortize pool
// overhead, small enough to keep the per-scenario stats buffer trivial.
const trialBlock = 256

// runScenario is RunScenario with the backend factory already resolved (so
// matrix sweeps resolve each distinct spec — and parse each trace file —
// once instead of once per cell), an explicit trial-level worker count, and a
// lane count for bit-sliced trial batching. Trials are independent given the
// immutable bootstrap, so blocks of them fan across trialWorkers; per-trial
// stats land at their trial's index and fold into the streams in trial order,
// which keeps the result bit-identical to a sequential run for any worker
// count. laneCount > 1 dispatches trials in core.RunRoundLanes batches of
// that width; lane execution is bit-identical to scalar execution for every
// lane partition, so laneCount is a pure throughput knob — it never changes
// results or cache keys.
func runScenario(sc Scenario, backend phy.Factory, trialWorkers, laneCount int) (ScenarioResult, error) {
	if sc.Iterations <= 0 {
		return ScenarioResult{}, fmt.Errorf("%w: iterations %d", ErrBadSpec, sc.Iterations)
	}
	testbed, err := scenarioDeployment(sc)
	if err != nil {
		return ScenarioResult{}, err
	}
	n := testbed.NumNodes()
	sc.Nodes = n // normalize 0 under a named testbed, for reporting
	failed, sources, err := scenarioRoles(sc, n)
	if err != nil {
		return ScenarioResult{}, err
	}
	params := phy.DefaultParams()
	params.InterferenceBurstProb = sc.LossRate
	cfg := core.Config{
		Topology:    testbed,
		PHY:         params,
		Backend:     backend,
		Protocol:    sc.Protocol,
		Sources:     sources,
		Degree:      sc.Degree,
		NTXSharing:  sc.NTXSharing,
		DestSlack:   sc.DestSlack,
		Failed:      failed,
		Verifiable:  sc.Verifiable,
		VectorLen:   sc.VectorLen,
		ChannelSeed: sc.Seed,
	}
	boot, err := core.RunBootstrap(cfg)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("scenario %d (n=%d %v loss=%.2f): %w",
			sc.Index, sc.Nodes, sc.Protocol, sc.LossRate, err)
	}

	type trialStats struct {
		meanLatency time.Duration
		meanRadioOn time.Duration
		correct     int
		nodes       int
	}
	var lat, radio metrics.Stream
	okNodes, totalNodes, failedRounds := 0, 0, 0
	// Chain geometry is a function of (bootstrap, sources), not of the
	// trial, so trial 0's values describe the whole scenario. Written by
	// exactly one worker (the one that draws trial 0), read after the pool
	// joins.
	chainLen, chainPayload := 0, 0
	if laneCount < 1 {
		laneCount = 1
	} else if laneCount > phy.MaxLanes {
		laneCount = phy.MaxLanes
	}
	land := func(i int, res *core.RoundResult, block []trialStats) {
		if i == 0 {
			chainLen = res.SharingChainLen
			chainPayload = res.SharePayloadBytes
		}
		block[i%trialBlock] = trialStats{
			meanLatency: res.MeanLatency,
			meanRadioOn: res.MeanRadioOn,
			correct:     res.CorrectNodes,
			nodes:       len(res.NodeOK),
		}
	}
	block := make([]trialStats, trialBlock)
	for base := 0; base < sc.Iterations; base += trialBlock {
		count := sc.Iterations - base
		if count > trialBlock {
			count = trialBlock
		}
		var err error
		if laneCount == 1 {
			err = sim.ParallelFor(count, trialWorkers, func(i int) error {
				res, err := core.RunRound(boot, uint64(base+i))
				if err != nil {
					return err
				}
				land(base+i, res, block)
				return nil
			})
		} else {
			// Bit-sliced dispatch: each work unit is one lane batch of up to
			// laneCount consecutive trials. Lane results are bit-identical to
			// scalar trials, so the stats land at the same indices with the
			// same values for any lane width.
			groups := (count + laneCount - 1) / laneCount
			err = sim.ParallelFor(groups, trialWorkers, func(g int) error {
				lo := g * laneCount
				size := count - lo
				if size > laneCount {
					size = laneCount
				}
				results, err := core.RunRoundLanes(boot, uint64(base+lo), size)
				if err != nil {
					return err
				}
				for i, res := range results {
					land(base+lo+i, res, block)
				}
				return nil
			})
		}
		if err != nil {
			return ScenarioResult{}, err
		}
		// Fold in trial order: the streams' contents are then independent of
		// the worker count and identical to a sequential run.
		for i := 0; i < count; i++ {
			if block[i].correct > 0 {
				lat.AddDuration(block[i].meanLatency)
			} else {
				failedRounds++
			}
			radio.AddDuration(block[i].meanRadioOn)
			okNodes += block[i].correct
			totalNodes += block[i].nodes
		}
	}
	out := ScenarioResult{
		Scenario:        sc,
		SuccessRate:     float64(okNodes) / float64(totalNodes),
		FailedRounds:    failedRounds,
		SharingChainLen: chainLen,
		ShareAirBytes:   chainLen * chainPayload,
	}
	if lat.Len() > 0 {
		if out.LatencyMS, err = lat.Summarize(); err != nil {
			return ScenarioResult{}, fmt.Errorf("latency summary: %w", err)
		}
	}
	if out.RadioOnMS, err = radio.Summarize(); err != nil {
		return ScenarioResult{}, fmt.Errorf("radio summary: %w", err)
	}
	return out, nil
}

// backendLabel names a scenario's radio backend in reports.
func backendLabel(sc Scenario) string {
	if sc.Backend == "" {
		return DefaultBackend
	}
	return sc.Backend
}
