package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"

	"iotmpc/internal/cache"
	"iotmpc/internal/phy"
)

// Runner is the streaming sweep engine: it executes a Matrix (or an explicit
// scenario list) across a worker pool and emits every ScenarioResult to the
// configured Sinks the moment its cell completes — in deterministic index
// order, so the emitted stream (and the returned slice) is byte-identical
// for any worker count. With a cache directory configured, cells whose
// content address is already stored are served without simulating anything,
// which makes repeated and interrupted sweeps pay only for new work.
type Runner struct {
	workers      int
	trialWorkers int
	lanes        int
	cacheDir     string
	shard        ShardSpec
	sinks        []Sink
	ctx          context.Context
	executor     Executor
}

// DefaultLaneCount is the trial-lane width Runner sweeps execute with: full
// 64-lane batches. Lane execution is bit-identical to scalar execution for
// any width (pinned by core's equivalence tests), so the default is purely a
// throughput choice and never affects results or cache keys.
const DefaultLaneCount = phy.MaxLanes

// Option configures a Runner.
type Option func(*Runner)

// WithWorkers sets the scenario-level worker count (<= 0 selects
// GOMAXPROCS). Cells fan across these workers; the emitted results do not
// depend on the count.
func WithWorkers(n int) Option { return func(r *Runner) { r.workers = n } }

// WithTrialWorkers sets the trial-level worker count inside each scenario
// (<= 0 selects GOMAXPROCS, default 1). Matrix sweeps parallelize across
// cells and leave this at 1; single-cell callers (cmd/mpcsim) raise it to
// fan Monte-Carlo trials across cores instead. Results are identical for
// any value. Like WithWorkers, the <= 0 sentinel resolves to GOMAXPROCS at
// run time, not here — a GOMAXPROCS change between construction and Run is
// honored by both pools.
func WithTrialWorkers(n int) Option {
	return func(r *Runner) { r.trialWorkers = n }
}

// WithLanes sets the bit-sliced trial batch width, 1..phy.MaxLanes (<= 0
// selects DefaultLaneCount, larger values clamp to phy.MaxLanes). Width 1
// runs every trial scalar — the reference path; wider lanes batch that many
// consecutive trials of a cell into one bit-sliced execution. Emitted
// results are identical for any value.
func WithLanes(n int) Option {
	return func(r *Runner) {
		switch {
		case n <= 0:
			r.lanes = DefaultLaneCount
		case n > phy.MaxLanes:
			r.lanes = phy.MaxLanes
		default:
			r.lanes = n
		}
	}
}

// WithCache enables the content-addressed result cache rooted at dir (see
// ScenarioCacheKey for the address definition).
func WithCache(dir string) Option { return func(r *Runner) { r.cacheDir = dir } }

// WithShard restricts execution to one shard of the sweep: the Partition
// range of spec.Shard out of spec.Total contiguous cell ranges. The shard
// emits exactly its own range to the sinks (in index order, so shard
// streams concatenate into the unsharded stream), writes a per-shard
// manifest on completion, and — with spec.Steal — keeps computing other
// shards' missing cells afterwards. Sharding never changes what any cell
// computes; MergeShards reassembles the byte-identical full sweep. The
// zero spec is the unsharded default.
func WithShard(spec ShardSpec) Option { return func(r *Runner) { r.shard = spec } }

// WithSinks appends result sinks. Sinks are driven from a single goroutine
// in scenario-index order and need no internal locking.
func WithSinks(sinks ...Sink) Option {
	return func(r *Runner) { r.sinks = append(r.sinks, sinks...) }
}

// WithContext attaches a cancellation context: cancelling it stops the
// dispatch of not-yet-started cells (in-flight cells finish) and Run returns
// the context's error.
func WithContext(ctx context.Context) Option { return func(r *Runner) { r.ctx = ctx } }

// CellTask is one pending (cache-missed) cell the Runner hands to an
// external Executor instead of its own worker pool. Index is the cell's
// position in the expanded matrix; Run simulates the cell (or, if the
// Runner has since been canceled or failed, cheaply reports it skipped).
type CellTask struct {
	Index int
	run   func()
}

// Run executes the task. It must be called exactly once, from any
// goroutine; the Runner blocks until every submitted task has run.
func (t CellTask) Run() { t.run() }

// Executor runs cells on behalf of a Runner. Submit must not block beyond
// enqueueing, and the executor must eventually call Run on every submitted
// task exactly once — even after the Runner's context is canceled, when the
// task degenerates to a cheap skip notification. The contract exists for
// schedulers that interleave cells from several concurrent sweeps over one
// shared worker pool (the sweep service's fair scheduler).
type Executor interface {
	Submit(CellTask)
}

// WithExecutor replaces the Runner's internal worker pool with an external
// executor: every cache-missed cell is submitted as a CellTask and the
// executor decides when (and on which worker) it runs. Emission order,
// results, and the cache protocol are unchanged — an executor only
// reorders *when* cells compute, never what they compute, so the emitted
// stream stays byte-identical to an internally-pooled run.
func WithExecutor(ex Executor) Option { return func(r *Runner) { r.executor = ex } }

// NewRunner builds a Runner from options. The zero configuration (no
// options) runs GOMAXPROCS workers with no cache and no sinks.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{trialWorkers: 1, lanes: DefaultLaneCount, ctx: context.Background()}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Plan is what sinks learn at OnStart: the fully expanded scenario list and
// how the sweep will execute. CacheHits counts the cells already known to be
// served from the cache when execution begins — the whole matrix on a
// manifest hit; with pipelined per-cell probing the hits are discovered
// while the sweep runs and reported in RunSummary instead.
type Plan struct {
	Scenarios []Scenario
	Workers   int
	CacheDir  string
	CacheHits int
	// ManifestHit reports that the whole sweep was served from its
	// manifest — the matrix manifest, or this shard's manifest on a
	// sharded run — one index file open instead of one stat per cell.
	ManifestHit bool
	// Shard is the (normalized) shard assignment; Total 1 is unsharded.
	// Scenarios always holds the full matrix — the shard's own range is
	// Partition(len(Scenarios), Shard.Shard, Shard.Total).
	Shard ShardSpec
}

// RunSummary is what sinks learn at OnFinish. On a sharded run every count
// covers the shard's own Partition range, except Stolen.
type RunSummary struct {
	Cells     int
	CacheHits int
	Computed  int
	// Resumed counts the cells the probe pipeline found already cached
	// while the sweep ran — work inherited from an earlier (killed or
	// concurrent) invocation instead of recomputed. Whole-sweep manifest
	// hits resolve before execution and are CacheHits but not Resumed.
	Resumed int
	// Stolen counts cells OUTSIDE this shard's range computed by work
	// stealing after the own range finished. Stolen results go to the
	// cache for their owner (and the merge) to pick up; they are never
	// emitted to this shard's sinks.
	Stolen int
	// CacheWriteErrors counts computed cells whose result could not be
	// persisted (full or read-only cache volume). The cache is an
	// optimization, so write failures never abort a sweep — they just mean
	// those cells will be recomputed next time.
	CacheWriteErrors int
	// ManifestWriteError reports that the sweep completed but its
	// completion manifest (matrix or shard) could not be written: the next
	// run falls back to per-cell probing, and a merge falls back to
	// per-cell entries. Cell persistence is accounted separately above.
	ManifestWriteError bool
}

// Sink consumes a sweep as a stream. OnResult is called exactly once per
// scenario, in index order, as soon as that cell (and every cell before it)
// has completed; all three methods are called from one goroutine. A non-nil
// error aborts the sweep.
type Sink interface {
	OnStart(plan Plan) error
	OnResult(r ScenarioResult) error
	OnFinish(sum RunSummary) error
}

// ResultCacheVersion stamps every cache key with the simulation code
// version. Bump it whenever a change alters what any scenario computes
// (protocol logic, PHY models, metric folding) so stale entries become
// misses instead of silently wrong answers.
//
// Deliberately NOT bumped for the batched-sealing release: scalar rounds
// are bit-identical to before (pinned in core's golden test), so every
// pre-existing entry is still a correct answer. Entries written before
// ScenarioResult gained its informational chain-accounting fields
// (SharingChainLen/ShareAirBytes) decode with them zero; those fields
// describe the result, they never feed back into simulation.
const ResultCacheVersion = "iotmpc/scenario-result/v1"

// manifestVersion stamps matrix manifest entries: one cache file indexing a
// whole sweep's results. It needs no bump when ResultCacheVersion bumps —
// the manifest key is derived from the per-cell keys, which already carry
// the result version.
const manifestVersion = "iotmpc/matrix-manifest/v1"

// matrixManifestKey is the content address of a sweep's manifest: the
// digest of every cell key in index order. Any change to any cell — a
// swept value, the derived seed, a trace file's bytes, the code version —
// changes some cell key and therefore misses the old manifest.
func matrixManifestKey(keys []string) string {
	payload := make([]byte, 0, len(keys)*65) // 64 hex digits + separator each
	for _, k := range keys {
		payload = append(payload, k...)
		payload = append(payload, '\n')
	}
	return cache.Key(manifestVersion, payload)
}

// ScenarioCacheKey is the content address of a scenario's result: the
// SHA-256 of ResultCacheVersion plus the scenario's canonical (JSON)
// encoding — every swept field, including the derived seed — plus, for
// trace backends that reference a file on disk, a digest of the file's
// contents, so editing a trace invalidates its cached cells. Bundled traces
// are code and ride on the version stamp.
func ScenarioCacheKey(sc Scenario) (string, error) {
	digest, err := backendContentDigest(sc.Backend)
	if err != nil {
		return "", err
	}
	return scenarioKeyWithDigest(sc, digest)
}

// scenarioKeyWithDigest is ScenarioCacheKey with the backend content digest
// already resolved, so sweeps hash a shared trace file once per distinct
// spec instead of once per cell.
func scenarioKeyWithDigest(sc Scenario, digest string) (string, error) {
	payload, err := json.Marshal(sc)
	if err != nil {
		return "", fmt.Errorf("experiment: encode scenario: %w", err)
	}
	payload = append(payload, digest...)
	return cache.Key(ResultCacheVersion, payload), nil
}

// backendContentDigest hashes the trace file a backend spec references, or
// returns "" for specs that carry no external content (traceIsFile is the
// shared disk-vs-bundled rule).
func backendContentDigest(spec string) (string, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	if kind != "trace" || arg == "" || !traceIsFile(arg) {
		return "", nil
	}
	raw, err := os.ReadFile(arg)
	if err != nil {
		return "", fmt.Errorf("experiment: hash trace %q: %w", arg, err)
	}
	sum := sha256.Sum256(raw)
	return fmt.Sprintf("trace:%x", sum), nil
}

// ScenarioKeys computes every cell's content address in index order —
// scenarioKeys exported for the sweep service, whose result rows are keyed
// by exactly these addresses (dedup across jobs rides on the cache keys).
func ScenarioKeys(scenarios []Scenario) ([]string, error) {
	return scenarioKeys(scenarios)
}

// scenarioKeys computes every cell's content address, hashing each distinct
// trace file once per sweep instead of once per cell. Sharding and merging
// both key the whole matrix — a shard needs every key for its manifests and
// for work stealing, not just its own range's.
func scenarioKeys(scenarios []Scenario) ([]string, error) {
	keys := make([]string, len(scenarios))
	digests := make(map[string]string)
	for i, sc := range scenarios {
		digest, ok := digests[sc.Backend]
		if !ok {
			var err error
			if digest, err = backendContentDigest(sc.Backend); err != nil {
				return nil, err
			}
			digests[sc.Backend] = digest
		}
		key, err := scenarioKeyWithDigest(sc, digest)
		if err != nil {
			return nil, err
		}
		keys[i] = key
	}
	return keys, nil
}

// resolvedWorkers maps the <= 0 "pick for me" sentinels of both worker
// knobs to GOMAXPROCS at run time. Resolving lazily (rather than when the
// option is applied) keeps the two knobs consistent and honors a
// GOMAXPROCS change made between NewRunner and Run.
func (r *Runner) resolvedWorkers() (workers, trialWorkers int) {
	workers, trialWorkers = r.workers, r.trialWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if trialWorkers <= 0 {
		trialWorkers = runtime.GOMAXPROCS(0)
	}
	return workers, trialWorkers
}

// Run expands the matrix and executes it; see RunScenarios.
func (r *Runner) Run(m Matrix) ([]ScenarioResult, error) {
	scenarios, err := m.Scenarios()
	if err != nil {
		return nil, err
	}
	return r.RunScenarios(scenarios)
}

// compMsg reports one cell's completion from the pool or the probe
// pipeline to the collector.
type compMsg struct {
	index   int
	err     error
	skipped bool // not executed: dispatch stopped by cancellation or failure
	cached  bool // served by the probe pipeline from the cell cache
}

// RunScenarios executes an explicit scenario list (normally the output of
// Matrix.Scenarios; cmd/mpcsim passes a single hand-built cell). Results are
// returned — and streamed to the sinks — in list order, independent of
// worker count. The first failing cell's error is returned (deterministic:
// the lowest failing index), and it stops the dispatch of cells that have
// not started yet.
//
// With a cache configured, two mechanisms keep very large matrices from
// paying per-cell cache latency up front:
//
//   - Manifest fast path: a fully completed sweep leaves one manifest
//     entry indexing every cell result under the digest of the cell key
//     list (per-shard on a sharded run). An identical rerun loads the
//     whole sweep from that single file — O(1) opens for 10⁵+ cells —
//     before execution begins.
//   - Probe pipeline: on a manifest miss, a prober walks the cells in
//     index order, serving hits itself and forwarding misses straight to
//     the worker pool, so cache I/O overlaps simulation instead of
//     serially preceding it. A cell cached by an earlier killed run — or
//     by another shard's work stealing — resolves here, which is what
//     makes any interrupted sweep resumable for free; the summary reports
//     such cells as Resumed.
//
// With WithShard only the shard's Partition range executes and is
// returned/emitted; see WithShard and MergeShards.
func (r *Runner) RunScenarios(scenarios []Scenario) ([]ScenarioResult, error) {
	n := len(scenarios)
	spec := r.shard.normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	lo, hi := Partition(n, spec.Shard, spec.Total)

	// Resolve each distinct backend spec once (trace files parse once per
	// sweep, not once per cell); the map is read-only once workers start.
	factories := make(map[string]phy.Factory)
	for _, sc := range scenarios {
		if _, ok := factories[sc.Backend]; !ok {
			f, err := ParseBackend(sc.Backend)
			if err != nil {
				return nil, err
			}
			factories[sc.Backend] = f
		}
	}

	var store *cache.Store
	if r.cacheDir != "" {
		var err error
		if store, err = cache.Open(r.cacheDir); err != nil {
			return nil, err
		}
	}

	results := make([]ScenarioResult, n)
	done := make([]bool, n)
	hits := 0
	manifestHit := false
	var keys []string
	var manifestKey string
	if store != nil {
		// Cell keys are pure hashing over in-memory scenario encodings (plus
		// one trace-file read per distinct spec) — cheap even at 10⁵ cells.
		var err error
		if keys, err = scenarioKeys(scenarios); err != nil {
			return nil, err
		}
		manifestKey = matrixManifestKey(keys)
		var cached []ScenarioResult
		if ok, err := store.Get(manifestKey, &cached); err != nil {
			return nil, err
		} else if ok && len(cached) == n {
			for i := range cached {
				cached[i].Cached = true
				results[i] = cached[i]
				done[i] = true
			}
			hits = hi - lo
			manifestHit = true
		}
		if !manifestHit && spec.sharded() {
			// A completed shard's rerun takes the same one-open fast path
			// through the shard's own manifest.
			var part []ScenarioResult
			if ok, err := store.Get(shardManifestKey(keys, spec.Shard, spec.Total), &part); err != nil {
				return nil, err
			} else if ok && len(part) == hi-lo {
				for i := range part {
					part[i].Cached = true
					results[lo+i] = part[i]
					done[lo+i] = true
				}
				hits = hi - lo
				manifestHit = true
			}
		}
	}

	workers, trialWorkers := r.resolvedWorkers()
	plan := Plan{Scenarios: scenarios, Workers: workers, CacheDir: r.cacheDir,
		CacheHits: hits, ManifestHit: manifestHit, Shard: spec}
	for _, s := range r.sinks {
		if err := s.OnStart(plan); err != nil {
			return nil, err
		}
	}

	var pending []int
	for i := lo; i < hi; i++ {
		if !done[i] {
			pending = append(pending, i)
		}
	}

	// The collector below runs on this goroutine: it drains completion
	// messages, marks cells done, and advances the emission frontier,
	// calling sinks for every completed prefix cell of the shard's own
	// range. Sinks therefore see results in index order no matter how the
	// pool interleaves.
	next := lo
	var sinkErr error
	emit := func() {
		for next < hi && done[next] && sinkErr == nil {
			for _, s := range r.sinks {
				if err := s.OnResult(results[next]); err != nil {
					sinkErr = err
					return
				}
			}
			next++
		}
	}
	emit() // a manifest hit streams the whole range out before any simulation
	if sinkErr != nil {
		// A sink died on the cached prefix (e.g. a closed downstream pipe):
		// abort before starting the pool rather than simulating cells whose
		// output has nowhere to go.
		return nil, sinkErr
	}

	var putErrors atomic.Int64
	resumed := 0
	failed := false
	if len(pending) > 0 {
		if workers > len(pending) {
			workers = len(pending)
		}
		idxCh := make(chan int)
		// Buffered to the sweep size: the prober must keep probing (and
		// resolving hits) while the pool is saturated with a cold prefix,
		// not stall behind the first two outstanding misses.
		missCh := make(chan int, len(pending))
		compCh := make(chan compMsg)
		stop := make(chan struct{})
		var stopOnce func()
		{
			closed := false
			stopOnce = func() {
				if !closed {
					closed = true
					close(stop)
				}
			}
		}
		// runOne is the worker body: simulate the cell, persist it, report.
		runOne := func(i int) {
			sc := scenarios[i]
			res, err := runScenario(sc, factories[sc.Backend], trialWorkers, r.lanes)
			if err == nil {
				results[i] = res
				if store != nil && store.Put(keys[i], res) != nil {
					// The cache is an optimization: a failed write
					// (full disk, read-only dir) must not discard a
					// successfully computed sweep. The cell is simply
					// not reusable next run; the summary counts it.
					putErrors.Add(1)
				}
			}
			compCh <- compMsg{index: i, err: err}
		}
		if r.executor == nil {
			for w := 0; w < workers; w++ {
				go func() {
					for i := range idxCh {
						runOne(i)
					}
				}()
			}
		}
		// Prober: resolves each pending cell against the cache in index
		// order, completing hits itself and handing misses to the
		// dispatcher. Without a store it degenerates to a pass-through, and
		// once the sweep is told to stop it forwards the remainder unprobed
		// so the dispatcher can account for them as skipped.
		go func() {
			defer close(missCh)
			aborted := false
			for _, i := range pending {
				if !aborted {
					select {
					case <-r.ctx.Done():
						aborted = true
					case <-stop:
						aborted = true
					default:
					}
				}
				if store == nil || aborted {
					missCh <- i
					continue
				}
				var res ScenarioResult
				ok, err := store.Get(keys[i], &res)
				switch {
				case err != nil:
					compCh <- compMsg{index: i, err: err}
				case ok:
					res.Cached = true
					results[i] = res
					compCh <- compMsg{index: i, cached: true}
				default:
					missCh <- i
				}
			}
		}()
		// Dispatcher: forwards cache misses to the pool. The stop pre-check
		// matters: a worker parked on idxCh makes both select cases ready,
		// and select's random choice must not dispatch work after the sweep
		// has been told to stop.
		go func() {
			defer close(idxCh)
			stopped := false
			for i := range missCh {
				if !stopped {
					select {
					case <-r.ctx.Done():
						stopped = true
					case <-stop:
						stopped = true
					default:
					}
				}
				if stopped {
					compCh <- compMsg{index: i, skipped: true}
					continue
				}
				if r.executor != nil {
					// External scheduling: hand the cell over and move on.
					// The stop re-check lives inside the task, because an
					// executor may sit on it arbitrarily long while other
					// jobs' cells run.
					r.executor.Submit(CellTask{Index: i, run: func() {
						select {
						case <-r.ctx.Done():
							compCh <- compMsg{index: i, skipped: true}
							return
						case <-stop:
							compCh <- compMsg{index: i, skipped: true}
							return
						default:
						}
						runOne(i)
					}})
					continue
				}
				select {
				case idxCh <- i:
				case <-r.ctx.Done():
					stopped = true
					compCh <- compMsg{index: i, skipped: true}
				case <-stop:
					stopped = true
					compCh <- compMsg{index: i, skipped: true}
				}
			}
		}()

		errAt := make([]error, n)
		for remaining := len(pending); remaining > 0; remaining-- {
			msg := <-compCh
			switch {
			case msg.skipped:
				// never started; nothing to record
			case msg.err != nil:
				errAt[msg.index] = msg.err
				failed = true
				stopOnce()
			default:
				if msg.cached {
					hits++
					resumed++
				}
				done[msg.index] = true
				emit()
				if sinkErr != nil {
					failed = true
					stopOnce()
				}
			}
		}
		if sinkErr != nil {
			return nil, sinkErr
		}
		if failed {
			for _, err := range errAt {
				if err != nil {
					return nil, err
				}
			}
		}
		if err := r.ctx.Err(); err != nil && next < hi {
			return nil, err
		}
	}
	if sinkErr != nil {
		return nil, sinkErr
	}

	// Every own cell resolved: index the sweep under its completion
	// manifest — the matrix manifest unsharded, the shard's own manifest
	// sharded — so the next identical run opens one file instead of probing
	// cells, and a merge assembles from `total` manifests instead of n
	// cells. Like cell writes, a failed manifest write only costs future
	// speed, but it is tracked separately from CacheWriteErrors: every
	// computed cell's result WAS persisted.
	manifestWriteError := false
	if store != nil && !manifestHit && !failed && next == hi {
		if spec.sharded() {
			manifestWriteError = store.Put(shardManifestKey(keys, spec.Shard, spec.Total), results[lo:hi]) != nil
		} else {
			manifestWriteError = store.Put(manifestKey, results) != nil
		}
	}

	// Work stealing: the own range is complete, other shards may be
	// lagging. Walk their cells in reverse index order — away from each
	// owner's forward progress, so thief and owner meet once in the middle
	// instead of racing cell after cell — and compute whatever the cache
	// does not yet hold. A double compute against the owner is harmless:
	// per-scenario seeds make both results identical and the cache's
	// atomic Put makes the duplicate write a no-op overwrite.
	stolen := 0
	if spec.Steal && spec.sharded() && store != nil && !failed && next == hi {
	steal:
		for i := n - 1; i >= 0; i-- {
			if (i >= lo && i < hi) || done[i] {
				continue
			}
			select {
			case <-r.ctx.Done():
				break steal // own work is complete; stop stealing quietly
			default:
			}
			var res ScenarioResult
			ok, err := store.Get(keys[i], &res)
			if err != nil {
				return nil, err
			}
			if ok {
				continue
			}
			sc := scenarios[i]
			out, err := runScenario(sc, factories[sc.Backend], trialWorkers, r.lanes)
			if err != nil {
				return nil, err
			}
			if store.Put(keys[i], out) != nil {
				putErrors.Add(1)
			}
			stolen++
		}
	}

	sum := RunSummary{
		Cells:              hi - lo,
		CacheHits:          hits,
		Computed:           (hi - lo) - hits,
		Resumed:            resumed,
		Stolen:             stolen,
		CacheWriteErrors:   int(putErrors.Load()),
		ManifestWriteError: manifestWriteError,
	}
	for _, s := range r.sinks {
		if err := s.OnFinish(sum); err != nil {
			return nil, err
		}
	}
	return results[lo:hi], nil
}
