package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"iotmpc/internal/cache"
	"iotmpc/internal/experiment"
	"iotmpc/internal/sim"
)

// The sweeps run their matrices on fixed deployments: each node count maps
// to the named testbed of that size, so a seed changes shadowing, fading
// and secrets but not the geometry. On synthesized layouts a 32-cell
// sweep's cost swings by more than a tenth from seed to seed, which no
// regression bound could absorb. Node counts are listed largest first so
// that the two workers finish on cheap cells and a sweep's time tracks its
// total work rather than its last cell.
var testbedOfSize = map[int]string{26: "flocklab", 20: "grid"}

// coldMatrix is sweep-cold's plain matrix: 32 cells mixing the per-lane
// log-distance path with the bit-sliced certain-link unit-disk path, S3 and
// S4, scalar and 8-element vectors, two loss rates and two deployments.
// Iterations are few enough that a run holds well over a dozen sweeps, so
// the run's median sweep time does not rest on a handful of them.
func coldMatrix(seed int64) experiment.Matrix {
	return experiment.Matrix{
		Backends:   []string{"logdist", "unitdisk"},
		NodeCounts: []int{26, 20},
		LossRates:  []float64{0.1, 0.3},
		VectorLens: []int{0, 8},
		Iterations: 16,
		Seed:       seed,
	}
}

// verifiableMatrix is sweep-verifiable's matrix: Feldman verification makes
// each trial ~20x dearer, so fewer cells on the smaller deployment, and
// iterations few enough for a few dozen sweeps a run.
func verifiableMatrix(seed int64) experiment.Matrix {
	return experiment.Matrix{
		Backends:   []string{"logdist", "unitdisk"},
		NodeCounts: []int{20},
		LossRates:  []float64{0.1, 0.3},
		Verifiable: []bool{true},
		Iterations: 4,
		Seed:       seed,
	}
}

// checkBudget bounds the scalar recomputation of sampled cells; at least
// minChecked cells are recomputed whatever it costs.
const (
	checkBudget = 2 * time.Second
	minChecked  = 2
)

// sweepEnv runs one in-process Runner sweep after another, each over a
// fresh cache directory and a fresh matrix seed derived from the workload
// seed.
type sweepEnv struct {
	seed   int64
	dir    string
	shape  func(seed int64) experiment.Matrix
	expand []float64 // expansion times, ns
	next   []experiment.Scenario
	runs   []*sweepRun
}

// sweepRun is one completed sweep.
type sweepRun struct {
	key       string
	cacheDir  string
	scenarios []experiment.Scenario
	results   []experiment.ScenarioResult
	plan      experiment.Plan
	summary   experiment.RunSummary
	traced    bool
	err       error
}

func newSweepCold(seed int64, dir string) (env, error) { return newSweep(seed, dir, coldMatrix) }

func newSweepVerifiable(seed int64, dir string) (env, error) {
	return newSweep(seed, dir, verifiableMatrix)
}

// newSweep's set-up is expanding the first sweep's matrix, backend probes
// included. The directories under dir are created by the caches and stores
// that use them.
func newSweep(seed int64, dir string, shape func(int64) experiment.Matrix) (env, error) {
	e := &sweepEnv{seed: seed, dir: dir, shape: shape}
	if err := e.expandNext(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *sweepEnv) expandNext() error {
	m := e.shape(sim.DeriveSeed(e.seed, uint64(len(e.runs))))
	t0 := time.Now()
	scs, err := m.Scenarios()
	e.expand = append(e.expand, float64(time.Since(t0)))
	if err != nil {
		return err
	}
	for i := range scs {
		tb, ok := testbedOfSize[scs[i].Nodes]
		if !ok {
			return fmt.Errorf("no fixed deployment of %d nodes", scs[i].Nodes)
		}
		scs[i].Testbed = tb
	}
	e.next = scs
	return nil
}

func (e *sweepEnv) close() {}

// load runs whole sweeps until their summed duration reaches seconds.
// Expanding the next matrix happens between sweeps, outside the timing.
func (e *sweepEnv) load(seconds float64, rec *recorder) (*loadStats, error) {
	st := &loadStats{}
	for len(st.jobs) == 0 || st.wall.Seconds() < seconds {
		if e.next == nil {
			if err := e.expandNext(); err != nil {
				return nil, err
			}
		}
		run := &sweepRun{key: fmt.Sprintf("sweep%03d", len(e.runs)), scenarios: e.next, traced: rec != nil}
		e.next = nil
		run.cacheDir = filepath.Join(e.dir, run.key)
		var first time.Time
		sink := &experiment.FuncSink{
			Start: func(p experiment.Plan) error { run.plan = p; return nil },
			Result: func(experiment.ScenarioResult) error {
				if first.IsZero() {
					first = time.Now()
				}
				return nil
			},
			Finish: func(s experiment.RunSummary) error { run.summary = s; return nil },
		}
		opts := []experiment.Option{experiment.WithWorkers(nproc), experiment.WithCache(run.cacheDir),
			experiment.WithSinks(sink)}
		job := rec.start("bench.job", run.key, 0)
		var ex *cellExecutor
		if rec != nil {
			ex = newCellExecutor(len(run.scenarios), rec, job.id(), run.key)
			opts = append(opts, experiment.WithExecutor(ex))
		}
		t0 := time.Now()
		run.results, run.err = experiment.NewRunner(opts...).RunScenarios(run.scenarios)
		el := time.Since(t0)
		if ex != nil {
			ex.close()
		}
		job.end()
		e.runs = append(e.runs, run)

		st.attempted += len(run.scenarios)
		st.wall += el
		if run.err != nil {
			st.failed += len(run.scenarios)
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", run.key, run.err)
			continue
		}
		st.trials += len(run.scenarios) * run.scenarios[0].Iterations
		st.jobs = append(st.jobs, jobSample{first: first.Sub(t0), last: el})
	}
	return st, nil
}

// check verifies every sweep's shape and recomputes a seeded sample of its
// cells on the scalar reference path (experiment.RunScenario), which must
// agree exactly.
func (e *sweepEnv) check(rec *recorder) (attempted, failed int) {
	type cellRef struct {
		run *sweepRun
		i   int
	}
	var cells []cellRef
	for _, run := range e.runs {
		if run.err != nil {
			continue
		}
		attempted++
		if len(run.results) != len(run.scenarios) || run.summary.Computed != len(run.scenarios) {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d results, %d computed, want %d\n",
				run.key, len(run.results), run.summary.Computed, len(run.scenarios))
			continue
		}
		for i := range run.scenarios {
			cells = append(cells, cellRef{run, i})
		}
	}
	rng := rand.New(rand.NewPCG(uint64(e.seed), 0xC4EC))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	var mu sync.Mutex
	var wg sync.WaitGroup
	next, deadline := 0, time.Now().Add(checkBudget)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(cells) || (next >= minChecked && time.Now().After(deadline)) {
					mu.Unlock()
					return
				}
				c := cells[next]
				next++
				mu.Unlock()
				sc := c.run.scenarios[c.i]
				sp := rec.start("experiment.run_scenario", fmt.Sprintf("%s/%d", c.run.key, c.i), 0)
				want, err := experiment.RunScenario(sc)
				sp.end()
				ok := err == nil && reflect.DeepEqual(want, c.run.results[c.i])
				mu.Lock()
				attempted++
				if !ok {
					failed++
					fmt.Fprintf(os.Stderr, "perfbench: %s cell %d differs from RunScenario (%v)\n", c.run.key, c.i, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return attempted, failed
}

// layers reports the Runner's counters over the traced sweeps, replays
// sampled cells layer by layer, and runs the service and fleet probes.
func (e *sweepEnv) layers(rec *recorder, m map[string]float64) (attempted, failed int, err error) {
	m["experiment.expand_ms"] = median(e.expand) / 1e6
	var cells, computed, hits, manifest []float64
	var last *sweepRun
	for _, run := range e.runs {
		if !run.traced || run.err != nil {
			continue
		}
		last = run
		cells = append(cells, float64(run.summary.Cells))
		computed = append(computed, float64(run.summary.Computed))
		hits = append(hits, float64(run.summary.CacheHits))
		mh := 0.0
		if run.plan.ManifestHit {
			mh = 1
		}
		manifest = append(manifest, mh)
	}
	if last == nil {
		return 0, 0, fmt.Errorf("no traced sweep completed")
	}
	m["experiment.cells"] = mean(cells)
	m["experiment.computed"] = mean(computed)
	m["experiment.cache_hits"] = mean(hits)
	m["experiment.manifest_hits"] = mean(manifest)

	c, err := cache.Open(last.cacheDir)
	if err != nil {
		return 0, 0, err
	}
	stats, err := c.Stats()
	if err != nil {
		return 0, 0, err
	}
	m["cache.entries"], m["cache.bytes"] = float64(stats.Entries), float64(stats.TotalBytes)

	attempted, failed, err = probeLayers(rec, e.seed, last.scenarios, last.results, 4,
		filepath.Join(e.dir, "probe-cache"), m)
	if err != nil {
		return attempted, failed, err
	}
	for i, probe := range []func(int64, string, *recorder, map[string]float64) (int, int, error){probeService, probeFleet} {
		a, f, err := probe(e.seed, filepath.Join(e.dir, fmt.Sprintf("probe%d", i)), rec, m)
		attempted, failed = attempted+a, failed+f
		if err != nil {
			return attempted, failed, err
		}
	}
	return attempted, failed, nil
}

// cellExecutor runs a Runner's cells on nproc goroutines in submission
// order and records one experiment.cell span per cell. The queue is sized
// to the cell count, so Submit never blocks.
type cellExecutor struct {
	tasks chan experiment.CellTask
	wg    sync.WaitGroup
}

func newCellExecutor(cells int, rec *recorder, parent int64, key string) *cellExecutor {
	ex := &cellExecutor{tasks: make(chan experiment.CellTask, cells)}
	for w := 0; w < nproc; w++ {
		ex.wg.Add(1)
		go func() {
			defer ex.wg.Done()
			for t := range ex.tasks {
				sp := rec.start("experiment.cell", fmt.Sprintf("%s/%d", key, t.Index), parent)
				t.Run()
				sp.end()
			}
		}()
	}
	return ex
}

// Submit implements experiment.Executor.
func (ex *cellExecutor) Submit(t experiment.CellTask) { ex.tasks <- t }

// close stops the workers once the Runner has returned.
func (ex *cellExecutor) close() {
	close(ex.tasks)
	ex.wg.Wait()
}
