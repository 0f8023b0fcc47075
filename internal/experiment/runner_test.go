package experiment

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/sim"
)

// recordingSink captures the full sink stream for assertions.
type recordingSink struct {
	plan    Plan
	results []ScenarioResult
	summary RunSummary
	started int
	ended   int
}

func (r *recordingSink) OnStart(p Plan) error {
	r.started++
	r.plan = p
	return nil
}

func (r *recordingSink) OnResult(res ScenarioResult) error {
	r.results = append(r.results, res)
	return nil
}

func (r *recordingSink) OnFinish(s RunSummary) error {
	r.ended++
	r.summary = s
	return nil
}

func runnerMatrix() Matrix {
	return Matrix{
		NodeCounts: []int{10, 14},
		LossRates:  []float64{0.1, 0.3},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 3,
		Seed:       7,
	}
}

// stripCached clears the runtime cache flag so cached and computed runs can
// be compared value-for-value.
func stripCached(results []ScenarioResult) []ScenarioResult {
	out := append([]ScenarioResult(nil), results...)
	for i := range out {
		out[i].Cached = false
	}
	return out
}

func TestRunnerSinkOrderingAcrossWorkerCounts(t *testing.T) {
	var baseline []ScenarioResult
	for _, workers := range []int{1, 3, 8} {
		sink := &recordingSink{}
		results, err := NewRunner(WithWorkers(workers), WithSinks(sink)).Run(runnerMatrix())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sink.started != 1 || sink.ended != 1 {
			t.Fatalf("workers=%d: OnStart/OnFinish called %d/%d times", workers, sink.started, sink.ended)
		}
		// The emitted stream is exactly the result slice, in index order.
		if !reflect.DeepEqual(sink.results, results) {
			t.Fatalf("workers=%d: sink stream diverged from returned results", workers)
		}
		for i, r := range sink.results {
			if r.Scenario.Index != i {
				t.Fatalf("workers=%d: emission %d carries index %d", workers, i, r.Scenario.Index)
			}
		}
		if baseline == nil {
			baseline = results
		} else if !reflect.DeepEqual(baseline, results) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
	}
}

func TestRunnerTrialWorkersDeterminism(t *testing.T) {
	// Trial-level fan-out (cmd/mpcsim's knob) must not change a single bit.
	m := Matrix{
		NodeCounts: []int{10},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 6,
		Seed:       3,
	}
	seq, err := NewRunner(WithTrialWorkers(1)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(WithTrialWorkers(4)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("trial workers changed results")
	}
}

func TestRunnerCacheColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	m := runnerMatrix()

	cold := &recordingSink{}
	first, err := NewRunner(WithCache(dir), WithSinks(cold)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if cold.summary.CacheHits != 0 || cold.summary.Computed != len(first) {
		t.Fatalf("cold run summary: %+v", cold.summary)
	}

	warm := &recordingSink{}
	second, err := NewRunner(WithCache(dir), WithSinks(warm)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: a repeated sweep is served entirely from cache —
	// zero cells computed, hence zero core.RunRound calls.
	if warm.summary.Computed != 0 || warm.summary.CacheHits != len(second) {
		t.Fatalf("warm run summary: %+v", warm.summary)
	}
	if warm.plan.CacheHits != len(second) {
		t.Fatalf("warm plan advertised %d hits, want %d", warm.plan.CacheHits, len(second))
	}
	for _, r := range second {
		if !r.Cached {
			t.Fatalf("warm cell %d not flagged cached", r.Scenario.Index)
		}
	}
	if !reflect.DeepEqual(first, stripCached(second)) {
		t.Fatal("cached results differ from computed results")
	}

	// An uncached run agrees too (cache must be value-transparent).
	plain, err := NewRunner().Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, first) {
		t.Fatal("cache-enabled run diverged from a plain run")
	}
}

func TestRunnerCacheInvalidation(t *testing.T) {
	m := Matrix{
		NodeCounts: []int{10},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 2,
		Seed:       7,
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	baseKey, err := ScenarioCacheKey(scenarios[0])
	if err != nil {
		t.Fatal(err)
	}

	// Changed seed → different cell address.
	reseeded := scenarios[0]
	reseeded.Seed = sim.DeriveSeed(99, 0)
	reseededKey, err := ScenarioCacheKey(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if reseededKey == baseKey {
		t.Fatal("seed change did not change the cache key")
	}

	// Any swept axis → different cell address.
	verifiable := scenarios[0]
	verifiable.Verifiable = true
	verifiableKey, err := ScenarioCacheKey(verifiable)
	if err != nil {
		t.Fatal(err)
	}
	if verifiableKey == baseKey {
		t.Fatal("verifiable change did not change the cache key")
	}
}

func TestRunnerCacheVersionBumpRecomputes(t *testing.T) {
	// A version bump is simulated by relocating entries under keys derived
	// from a different stamp: the runner must treat every cell as a miss.
	dir := t.TempDir()
	m := Matrix{
		NodeCounts: []int{10},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 2,
		Seed:       7,
	}
	if _, err := NewRunner(WithCache(dir)).Run(m); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Rename(filepath.Join(dir, e.Name()),
			filepath.Join(dir, "stale-"+e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	sink := &recordingSink{}
	if _, err := NewRunner(WithCache(dir), WithSinks(sink)).Run(m); err != nil {
		t.Fatal(err)
	}
	if sink.summary.CacheHits != 0 {
		t.Fatalf("stale entries served as hits: %+v", sink.summary)
	}
}

func TestRunnerCacheCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	m := Matrix{
		NodeCounts: []int{10},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 2,
		Seed:       7,
	}
	first, err := NewRunner(WithCache(dir)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One entry per cell plus the sweep's manifest index.
	if len(entries) != len(first)+1 {
		t.Fatalf("%d cache entries for %d cells (+1 manifest)", len(entries), len(first))
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sink := &recordingSink{}
	second, err := NewRunner(WithCache(dir), WithSinks(sink)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if sink.summary.CacheHits != 0 || sink.summary.Computed != len(second) {
		t.Fatalf("corrupt entries not recomputed: %+v", sink.summary)
	}
	if !reflect.DeepEqual(first, stripCached(second)) {
		t.Fatal("recomputed results differ")
	}
	// The recompute repaired the cache: a third run is all hits again.
	third := &recordingSink{}
	if _, err := NewRunner(WithCache(dir), WithSinks(third)).Run(m); err != nil {
		t.Fatal(err)
	}
	if third.summary.Computed != 0 {
		t.Fatalf("cache not repaired: %+v", third.summary)
	}
}

func TestRunnerManifestFastPath(t *testing.T) {
	dir := t.TempDir()
	m := runnerMatrix()
	first, err := NewRunner(WithCache(dir)).Run(m)
	if err != nil {
		t.Fatal(err)
	}

	// The completed sweep left a manifest; a rerun advertises the whole
	// matrix as cached before execution begins.
	warm := &recordingSink{}
	second, err := NewRunner(WithCache(dir), WithSinks(warm)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.plan.ManifestHit || warm.plan.CacheHits != len(second) {
		t.Fatalf("manifest not hit: plan %+v", warm.plan)
	}
	if !reflect.DeepEqual(first, stripCached(second)) {
		t.Fatal("manifest-served results differ from computed results")
	}

	// The manifest alone carries the results: delete every per-cell entry
	// and the sweep must still be served without recomputing anything —
	// the O(1)-opens warm path for very large matrices.
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		key, err := ScenarioCacheKey(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, key+".json")); err != nil {
			t.Fatal(err)
		}
	}
	bare := &recordingSink{}
	third, err := NewRunner(WithCache(dir), WithSinks(bare)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bare.plan.ManifestHit || bare.summary.Computed != 0 {
		t.Fatalf("cell-less manifest rerun: plan %+v summary %+v", bare.plan, bare.summary)
	}
	if !reflect.DeepEqual(first, stripCached(third)) {
		t.Fatal("cell-less manifest rerun diverged")
	}

	// A different matrix must miss this manifest.
	other := m
	other.Seed++
	miss := &recordingSink{}
	if _, err := NewRunner(WithCache(dir), WithSinks(miss)).Run(other); err != nil {
		t.Fatal(err)
	}
	if miss.plan.ManifestHit || miss.summary.CacheHits != 0 {
		t.Fatalf("reseeded matrix reused a stale manifest: plan %+v summary %+v",
			miss.plan, miss.summary)
	}
}

func TestRunnerPipelinedProbeDeterminism(t *testing.T) {
	// A partially warm cache with no manifest forces the probe pipeline:
	// hits resolve concurrently with computed cells, and the emitted stream
	// must still be exactly the index-ordered results for any worker count.
	dir := t.TempDir()
	m := runnerMatrix()
	baseline, err := NewRunner(WithCache(dir)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	// Drop the manifest and every even-indexed cell: half hits, half
	// recomputes, all probed while the pool runs.
	keys := make([]string, len(scenarios))
	for i, sc := range scenarios {
		if keys[i], err = ScenarioCacheKey(sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, matrixManifestKey(keys)+".json")); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for i := range scenarios {
		if i%2 == 0 {
			if err := os.Remove(filepath.Join(dir, keys[i]+".json")); err != nil {
				t.Fatal(err)
			}
			dropped++
		}
	}

	for _, workers := range []int{1, 4, 8} {
		// Each run starts from the same half-warm state: strip the manifest
		// (and the even cells) the previous iteration rewrote.
		if workers > 1 {
			if err := os.Remove(filepath.Join(dir, matrixManifestKey(keys)+".json")); err != nil {
				t.Fatal(err)
			}
			for i := range scenarios {
				if i%2 == 0 {
					if err := os.Remove(filepath.Join(dir, keys[i]+".json")); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		sink := &recordingSink{}
		results, err := NewRunner(WithWorkers(workers), WithCache(dir), WithSinks(sink)).Run(m)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sink.plan.ManifestHit {
			t.Fatalf("workers=%d: unexpected manifest hit", workers)
		}
		if sink.summary.CacheHits != len(scenarios)-dropped || sink.summary.Computed != dropped {
			t.Fatalf("workers=%d: summary %+v, want %d hits / %d computed",
				workers, sink.summary, len(scenarios)-dropped, dropped)
		}
		if !reflect.DeepEqual(sink.results, results) {
			t.Fatalf("workers=%d: sink stream diverged from returned results", workers)
		}
		for i, r := range sink.results {
			if r.Scenario.Index != i {
				t.Fatalf("workers=%d: emission %d carries index %d", workers, i, r.Scenario.Index)
			}
		}
		if !reflect.DeepEqual(baseline, stripCached(results)) {
			t.Fatalf("workers=%d: results differ from cold baseline", workers)
		}
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing must dispatch
	_, err := NewRunner(WithContext(ctx)).Run(runnerMatrix())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// failingSink aborts the sweep from OnResult.
type failingSink struct{ recordingSink }

func (f *failingSink) OnResult(ScenarioResult) error { return errors.New("sink full") }

func TestRunnerSinkErrorAborts(t *testing.T) {
	_, err := NewRunner(WithSinks(&failingSink{})).Run(runnerMatrix())
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("err = %v, want sink error", err)
	}
}

func TestMatrixNewAxesExpansion(t *testing.T) {
	m := Matrix{
		NodeCounts:   []int{10},
		NTXSharings:  []int{0, 4},
		DestSlacks:   []int{0, 2},
		FailureRates: []float64{0, 0.2},
		Verifiable:   []bool{false, true},
		Protocols:    []core.Protocol{core.S4},
		Iterations:   1,
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 16 {
		t.Fatalf("expanded %d scenarios, want 16", len(scenarios))
	}
	// Verifiable sits just outside protocol; failure outside that; etc.
	if scenarios[0].Verifiable || !scenarios[1].Verifiable {
		t.Fatalf("verifiable ordering: %v %v", scenarios[0].Verifiable, scenarios[1].Verifiable)
	}
	if scenarios[0].FailureRate != 0 || scenarios[2].FailureRate != 0.2 {
		t.Fatalf("failure ordering: %v %v", scenarios[0].FailureRate, scenarios[2].FailureRate)
	}
	if scenarios[0].DestSlack != 0 || scenarios[4].DestSlack != 2 {
		t.Fatalf("slack ordering: %v %v", scenarios[0].DestSlack, scenarios[4].DestSlack)
	}
	if scenarios[0].NTXSharing != 0 || scenarios[8].NTXSharing != 4 {
		t.Fatalf("ntx ordering: %v %v", scenarios[0].NTXSharing, scenarios[8].NTXSharing)
	}
}

func TestMatrixNewAxesValidation(t *testing.T) {
	cases := []Matrix{
		{NodeCounts: []int{10}, NTXSharings: []int{-1}, Iterations: 1},
		{NodeCounts: []int{10}, DestSlacks: []int{-2}, Iterations: 1},
		{NodeCounts: []int{10}, FailureRates: []float64{1.0}, Iterations: 1},
		{NodeCounts: []int{10}, FailureRates: []float64{-0.1}, Iterations: 1},
	}
	for i, m := range cases {
		if _, err := m.Scenarios(); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestRunScenarioFailureInjection(t *testing.T) {
	base := Scenario{Nodes: 12, Protocol: core.S4, Iterations: 4, Seed: sim.DeriveSeed(5, 0)}
	faulty := base
	faulty.FailureRate = 0.25

	healthy, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := RunScenario(faulty)
	if err != nil {
		t.Fatal(err)
	}
	// Repeatability of the failure draw.
	again, err := RunScenario(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crashed, again) {
		t.Fatal("failure injection not deterministic")
	}
	if reflect.DeepEqual(healthy, crashed) {
		t.Fatal("failure rate 0.25 changed nothing")
	}
}

func TestScenarioRolesFailureCountFloor(t *testing.T) {
	// 0.58*50 is 28.999999999999996 in binary floating point; the crash
	// count must still be the documented ⌊0.58·50⌋ = 29.
	failed, sources, err := scenarioRoles(Scenario{FailureRate: 0.58, Seed: 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, f := range failed {
		if f {
			count++
		}
	}
	if count != 29 {
		t.Fatalf("crashed %d nodes, want 29", count)
	}
	if failed[0] {
		t.Fatal("initiator crashed")
	}
	if len(sources) != 50-29 {
		t.Fatalf("%d sources, want %d survivors", len(sources), 50-29)
	}
	for _, s := range sources {
		if failed[s] {
			t.Fatalf("source %d is crashed", s)
		}
	}
}

func TestRunScenarioVerifiableMode(t *testing.T) {
	base := Scenario{Nodes: 10, Protocol: core.S4, Iterations: 2, Seed: sim.DeriveSeed(5, 0)}
	vss := base
	vss.Verifiable = true
	plain, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := RunScenario(vss)
	if err != nil {
		t.Fatal(err)
	}
	// The commitment chain is pure added airtime: radio-on must grow.
	if verified.RadioOnMS.Mean <= plain.RadioOnMS.Mean {
		t.Fatalf("verifiable radio-on %.2f <= plain %.2f",
			verified.RadioOnMS.Mean, plain.RadioOnMS.Mean)
	}
}

func TestRunScenarioNamedTestbed(t *testing.T) {
	sc := Scenario{Testbed: "flocklab", Protocol: core.S4, SourceCount: 6, Iterations: 2, Seed: 1}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario.Nodes != 26 {
		t.Fatalf("flocklab scenario normalized to %d nodes, want 26", res.Scenario.Nodes)
	}
	bad := sc
	bad.Nodes = 7
	if _, err := RunScenario(bad); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("node/testbed mismatch accepted: %v", err)
	}
	bad = sc
	bad.Testbed = "atlantis"
	if _, err := RunScenario(bad); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown testbed accepted: %v", err)
	}
}

func TestMatrixCSVQuotesCommaBackend(t *testing.T) {
	// The encoding/csv satellite: a backend spec containing commas must
	// survive a CSV round trip as one field.
	res := ScenarioResult{Scenario: Scenario{
		Index: 0, Backend: "trace:path,with,commas.csv", Nodes: 10,
		Protocol: core.S4, Iterations: 1,
	}}
	out := MatrixCSV([]ScenarioResult{res})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], `"trace:path,with,commas.csv"`) {
		t.Fatalf("backend spec not quoted: %s", lines[1])
	}
	// And it parses back to the schema's field count.
	fields := len(matrixCSVHeader)
	if got := strings.Count(lines[0], ",") + 1; got != fields {
		t.Fatalf("header has %d fields, want %d", got, fields)
	}
}

func TestRunnerManifestWriteErrorTrackedSeparately(t *testing.T) {
	// A directory squatting at the manifest path: Get treats the non-file as
	// a miss (malformed store, not an I/O fault), the sweep runs cold, every
	// CELL write succeeds, and only the final manifest rename fails. The
	// summary must pin the failure on the manifest alone — before the fix it
	// was folded into CacheWriteErrors, misreporting persisted cells as lost.
	dir := t.TempDir()
	m := runnerMatrix()
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := scenarioKeys(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, matrixManifestKey(keys)+".json"), 0o755); err != nil {
		t.Fatal(err)
	}

	var progress strings.Builder
	sink := &recordingSink{}
	results, err := NewRunner(WithCache(dir),
		WithSinks(sink, &ProgressSink{W: &progress})).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !sink.summary.ManifestWriteError {
		t.Fatalf("manifest write failure not reported: %+v", sink.summary)
	}
	if sink.summary.CacheWriteErrors != 0 {
		t.Fatalf("manifest failure miscounted as cell write errors: %+v", sink.summary)
	}
	if sink.summary.Computed != len(results) {
		t.Fatalf("summary %+v, want all %d cells computed", sink.summary, len(results))
	}
	if !strings.Contains(progress.String(), "completion manifest could not be persisted") {
		t.Fatalf("progress narration missing manifest warning:\n%s", progress.String())
	}
	// Every cell WAS persisted: the rerun probes them all as hits.
	warm := &recordingSink{}
	if _, err := NewRunner(WithCache(dir), WithSinks(warm)).Run(m); err != nil {
		t.Fatal(err)
	}
	if warm.summary.Computed != 0 || warm.plan.ManifestHit {
		t.Fatalf("rerun after manifest failure: plan %+v summary %+v", warm.plan, warm.summary)
	}
}

// TestRunnerNoManifestOverFailedCellWrite: a directory squatting at one
// cell's entry path makes that cell's write fail. The sweep still returns
// every result, but it writes no completion manifest, matrix or shard: a
// manifest hit would serve the sweep while the cell's own entry is missing.
func TestRunnerNoManifestOverFailedCellWrite(t *testing.T) {
	m := runnerMatrix()
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := scenarioKeys(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []ShardSpec{{}, {Shard: 0, Total: 2}} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, keys[1]+".json"), 0o755); err != nil {
			t.Fatal(err)
		}
		sink := &recordingSink{}
		results, err := NewRunner(WithCache(dir), WithShard(spec), WithSinks(sink)).Run(m)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := Partition(len(keys), spec.Shard, spec.normalized().Total)
		if len(results) != hi-lo || sink.summary.CacheWriteErrors != 1 || sink.summary.ManifestWriteError {
			t.Fatalf("shard %+v: %d results, summary %+v; want %d results and 1 cell write error",
				spec, len(results), sink.summary, hi-lo)
		}
		for _, manifest := range []string{matrixManifestKey(keys), shardManifestKey(keys, 0, 2)} {
			if _, err := os.Stat(filepath.Join(dir, manifest+".json")); !os.IsNotExist(err) {
				t.Fatalf("shard %+v: manifest %s written over a failed cell write (stat: %v)", spec, manifest, err)
			}
		}
	}
}

func TestWorkerResolutionIsLazy(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	// Both <= 0 sentinels must read GOMAXPROCS at resolution time, not at
	// option-apply time — cmd/mpcsim constructs the Runner before the
	// runtime is (possibly) retuned.
	runtime.GOMAXPROCS(3)
	r := NewRunner(WithWorkers(0), WithTrialWorkers(0))
	runtime.GOMAXPROCS(2)
	if w, tw := r.resolvedWorkers(); w != 2 || tw != 2 {
		t.Fatalf("resolved %d/%d workers, want 2/2 from run-time GOMAXPROCS", w, tw)
	}
	// Defaults: scenario workers follow GOMAXPROCS, trial workers stay 1.
	if w, tw := NewRunner().resolvedWorkers(); w != 2 || tw != 1 {
		t.Fatalf("default resolution %d/%d, want 2/1", w, tw)
	}
	// Explicit positive values pass through untouched.
	if w, tw := NewRunner(WithWorkers(5), WithTrialWorkers(7)).resolvedWorkers(); w != 5 || tw != 7 {
		t.Fatalf("explicit resolution %d/%d, want 5/7", w, tw)
	}
}

// failAfterNSink errors on the nth OnResult — mid-pool, unlike failingSink
// which dies on the very first emission.
type failAfterNSink struct {
	recordingSink
	failAt int
}

func (f *failAfterNSink) OnResult(r ScenarioResult) error {
	if err := f.recordingSink.OnResult(r); err != nil {
		return err
	}
	if len(f.results) >= f.failAt {
		return errors.New("sink failed mid-sweep")
	}
	return nil
}

func TestRunnerMidSweepSinkFailureDrainsAndSkipsManifest(t *testing.T) {
	dir := t.TempDir()
	m := runnerMatrix()
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := scenarioKeys(scenarios)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	_, err = NewRunner(WithCache(dir), WithSinks(&failAfterNSink{failAt: 2})).Run(m)
	if err == nil || !strings.Contains(err.Error(), "sink failed mid-sweep") {
		t.Fatalf("err = %v, want mid-sweep sink error", err)
	}

	// The aborted sweep must not leave a completion manifest: a rerun that
	// trusted one would replay the very results the sink never accepted.
	if _, statErr := os.Stat(filepath.Join(dir, matrixManifestKey(keys)+".json")); !os.IsNotExist(statErr) {
		t.Fatalf("aborted sweep left a manifest (stat err = %v)", statErr)
	}

	// And the pool must drain: every prober/dispatcher/worker goroutine
	// exits once the stop channel closes and the collector consumes the
	// remaining completion messages.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after sink failure: %d running, %d before",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunnerSurfacesCacheReadErrors(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("permission bits do not bind root; the cache package covers the classification with ENOTDIR")
	}
	dir := t.TempDir()
	m := runnerMatrix()
	if _, err := NewRunner(WithCache(dir)).Run(m); err != nil {
		t.Fatal(err)
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := scenarioKeys(scenarios)
	if err != nil {
		t.Fatal(err)
	}

	// An unreadable manifest is an error before execution begins.
	manifestPath := filepath.Join(dir, matrixManifestKey(keys)+".json")
	if err := os.Chmod(manifestPath, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(WithCache(dir)).Run(m); err == nil || !strings.Contains(err.Error(), "read entry") {
		t.Fatalf("unreadable manifest: err = %v, want surfaced read error", err)
	}

	// An unreadable CELL surfaces from the probe pipeline: the prober's
	// error branch must be live, not degrade to an eternal recompute.
	if err := os.Remove(manifestPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(filepath.Join(dir, keys[0]+".json"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(WithCache(dir)).Run(m); err == nil || !strings.Contains(err.Error(), "read entry") {
		t.Fatalf("unreadable cell: err = %v, want surfaced read error", err)
	}
}
