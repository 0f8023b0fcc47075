package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotmpc/internal/cache"
	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
	"iotmpc/internal/service"
	"iotmpc/internal/sim"
	"iotmpc/internal/store"
)

// Fleet timing is part of the fleet workload's definition (BENCHMARK.json
// repeats it). Grants arrive only on heartbeat ticks, so the heartbeat
// bounds the grant-phase jitter of every job; the lease is long enough that
// no healthy worker ever expires on a loaded 2-CPU host.
const (
	fleetHeartbeat = 25 * time.Millisecond
	fleetLease     = 2 * time.Second
	fleetScan      = 500 * time.Millisecond
	fleetWorkers   = 2
)

// Service-churn job mix: most jobs resubmit a pre-filled matrix (a manifest
// hit), some submit a node-count prefix of one (per-cell cache hits the
// first time a prefix is seen, a manifest hit after), and the rest a
// fresh-seed tiny cell that computes. Every churnListEvery-th job of a
// client also lists /v1/jobs.
const (
	churnPrefilled  = 3
	churnResubmit   = 0.7
	churnPrefix     = 0.2
	churnListEvery  = 10
	churnProbeSecs  = 1.0
	fleetProbeSecs  = 0.5
	serviceSettleTO = 10 * time.Second
	// retainJobs is the store's retention (sweepd -retain-jobs): a
	// long-running service prunes old terminal jobs, so the store, its
	// checkpoints and the per-job cost stay the same size however long
	// the load runs. Pruning goes by whole-second update times, so the cap
	// must outlast the server's 1 s event-poll fallback at full job rate,
	// or a job can vanish before its client reads it.
	retainJobs = 768
)

// churnMatrix is pre-filled matrix j: eight S4 cells of 8 to 15 nodes, so
// it has seven distinct node-count prefixes.
func churnMatrix(seed int64, j int) experiment.Matrix {
	return experiment.Matrix{
		NodeCounts: []int{8, 9, 10, 11, 12, 13, 14, 15},
		LossRates:  []float64{0.1},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 16,
		Seed:       sim.DeriveSeed(seed, uint64(j)),
	}
}

// freshMatrix is one tiny cell no earlier job computed.
func freshMatrix(seed int64) experiment.Matrix {
	return experiment.Matrix{
		NodeCounts: []int{8},
		LossRates:  []float64{0.1},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 8,
		Seed:       seed,
	}
}

// fleetMatrix is the fleet's medium plain matrix: 8 cells, which the
// coordinator splits into one contiguous shard per worker.
func fleetMatrix(seed int64) experiment.Matrix {
	return experiment.Matrix{
		Backends:   []string{"unitdisk", "logdist"},
		NodeCounts: []int{10, 14},
		LossRates:  []float64{0.2},
		Iterations: 32,
		Seed:       seed,
	}
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	matrix experiment.Matrix
	job    store.Job // terminal record
	body   []byte    // the results stream
	sample jobSample
	err    error
}

// serviceEnv is an in-process sweepd on loopback — a plain server for
// service-churn, or a coordinator plus fleetWorkers workers for fleet.
type serviceEnv struct {
	seed      int64
	dir       string
	fleet     bool
	st        *store.Store
	srv       *service.Server
	ts        *httptest.Server
	client    *http.Client
	stopFleet context.CancelFunc
	fleetDone sync.WaitGroup

	expand     []float64 // matrix expansion times, ns
	prefilled  []experiment.Matrix
	loads      int
	nextSeed   atomic.Int64
	httpErrors atomic.Int64

	mu       sync.Mutex
	outcomes []jobOutcome
	traced   []jobOutcome // outcomes of the traced load
	refs     map[string][]byte

	grantMu sync.Mutex
	granted map[string]time.Time // fleet: when each job's first shard grant left
}

// newServiceChurn's set-up computes the pre-filled matrices and then fills
// the store to its retention cap with resubmissions, so the timed load
// meets the steady state of a long-running service: per-job store cost
// grows with the jobs held, and stops growing at the cap.
func newServiceChurn(seed int64, dir string) (env, error) {
	return startChurn(seed, dir, retainJobs)
}

func startChurn(seed int64, dir string, fill int) (*serviceEnv, error) {
	e, err := startService(seed, dir, false)
	if err != nil {
		return nil, err
	}
	for j := 0; j < churnPrefilled; j++ {
		m := churnMatrix(seed, j)
		if err := e.timeExpand(m); err != nil {
			e.close()
			return nil, err
		}
		out := e.runJob(m, nil, fmt.Sprintf("prefill%d", j), false)
		if out.err != nil {
			e.close()
			return nil, fmt.Errorf("pre-fill job %d: %w", j, out.err)
		}
		e.outcomes = append(e.outcomes, out)
		e.prefilled = append(e.prefilled, m)
	}
	var wg sync.WaitGroup
	outs := make([][]jobOutcome, nproc)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; k < fill; k += nproc {
				outs[c] = append(outs[c], e.runJob(e.prefilled[k%len(e.prefilled)], nil, fmt.Sprintf("fill%d", k), false))
			}
		}()
	}
	wg.Wait()
	for _, o := range outs {
		for _, out := range o {
			if out.err != nil {
				e.close()
				return nil, fmt.Errorf("store fill: %w", out.err)
			}
		}
		e.outcomes = append(e.outcomes, o...)
	}
	return e, nil
}

func newFleet(seed int64, dir string) (env, error) { return startFleet(seed, dir) }

func startFleet(seed int64, dir string) (*serviceEnv, error) {
	e, err := startService(seed, dir, true)
	if err != nil {
		return nil, err
	}
	if err := e.timeExpand(fleetMatrix(seed)); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// startService opens the store and cache, starts the server on loopback
// and, for a fleet, registers the workers.
func startService(seed int64, dir string, fleet bool) (*serviceEnv, error) {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	st.Retention = store.RetentionPolicy{MaxJobs: retainJobs}
	cfg := service.Config{Store: st, CacheDir: filepath.Join(dir, "cache"), Workers: nproc}
	if fleet {
		cfg.Coordinator = true
		cfg.LeaseTTL = fleetLease
		cfg.LeaseScanEvery = fleetScan
	}
	srv, err := service.New(cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	srv.Start()
	e := &serviceEnv{
		seed: seed, dir: dir, fleet: fleet, st: st, srv: srv,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc,
		}},
		refs:    map[string][]byte{},
		granted: map[string]time.Time{},
	}
	handler := srv.Handler()
	if fleet {
		handler = e.watchGrants(handler)
	}
	e.ts = httptest.NewServer(handler)
	e.nextSeed.Store(seed * 1_000_003)
	if fleet {
		if err := e.startWorkers(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// fleetHealth is the part of /v1/healthz the fleet set-up reads: the live
// workers.
type fleetHealth struct {
	Workers []struct{} `json:"workers"`
}

func (e *serviceEnv) startWorkers() error {
	ctx, cancel := context.WithCancel(context.Background())
	e.stopFleet = cancel
	for i := 0; i < fleetWorkers; i++ {
		w, err := service.NewWorker(service.WorkerConfig{
			Coordinator:    e.ts.URL,
			Name:           fmt.Sprintf("w%d", i),
			CacheDir:       filepath.Join(e.dir, fmt.Sprintf("worker%d", i)),
			Workers:        1,
			HeartbeatEvery: fleetHeartbeat,
		})
		if err != nil {
			return err
		}
		e.fleetDone.Add(1)
		go func() {
			defer e.fleetDone.Done()
			w.Run(ctx)
		}()
	}
	deadline := time.Now().Add(serviceSettleTO)
	for {
		var h fleetHealth
		if err := e.getJSON("/v1/healthz", &h); err != nil {
			return err
		}
		if len(h.Workers) == fleetWorkers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d workers registered", len(h.Workers), fleetWorkers)
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *serviceEnv) close() {
	if e.stopFleet != nil {
		e.stopFleet()
		e.fleetDone.Wait()
	}
	e.srv.Close()
	e.ts.Close()
	e.client.CloseIdleConnections()
	e.st.Close()
}

// timeExpand measures one matrix expansion (backend probes included).
func (e *serviceEnv) timeExpand(m experiment.Matrix) error {
	t0 := time.Now()
	_, err := m.Scenarios()
	e.expand = append(e.expand, float64(time.Since(t0)))
	return err
}

func (e *serviceEnv) freshSeed() int64 { return e.nextSeed.Add(1) }

// load runs the closed loop: two clients for service-churn, one for fleet.
// Each client waits for its job's last result byte before submitting the
// next job.
func (e *serviceEnv) load(seconds float64, rec *recorder) (*loadStats, error) {
	clients := nproc
	if e.fleet {
		clients = 1
	}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	per := make([][]jobOutcome, clients)
	e.loads++ // each load of a run draws its own job sequence
	stream := uint64(e.loads)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(e.seed), uint64(c)<<32|stream))
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				key := fmt.Sprintf("c%d-%d", c, k)
				var out jobOutcome
				if e.fleet {
					out = e.runJob(fleetMatrix(e.freshSeed()), rec, key, true)
				} else {
					out = e.runJob(e.churnPick(rng), rec, key, false)
					if k%churnListEvery == churnListEvery-1 {
						sp := rec.start("service.list", key, 0)
						var page struct {
							Jobs []store.Job `json:"jobs"`
						}
						if err := e.getJSON("/v1/jobs?limit=20", &page); err != nil && out.err == nil {
							out.err = err
						}
						sp.end()
					}
				}
				per[c] = append(per[c], out)
			}
		}()
	}
	wg.Wait()
	st := &loadStats{wall: time.Since(t0)}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, outs := range per {
		for _, out := range outs {
			st.attempted++
			if out.err != nil {
				st.failed++
				fmt.Fprintf(os.Stderr, "perfbench: job failed: %v\n", out.err)
				continue
			}
			cells, err := out.matrix.Scenarios()
			if err != nil {
				return nil, err
			}
			st.trials += len(cells) * out.matrix.Iterations
			st.jobs = append(st.jobs, out.sample)
		}
		e.outcomes = append(e.outcomes, outs...)
		if rec != nil {
			e.traced = append(e.traced, outs...)
		}
	}
	return st, nil
}

// churnPick draws the next job of the service-churn mix from the client's
// own seeded stream, so a seed fixes each client's job sequence.
func (e *serviceEnv) churnPick(rng *rand.Rand) experiment.Matrix {
	r := rng.Float64()
	m := e.prefilled[rng.IntN(len(e.prefilled))]
	switch {
	case r < churnResubmit:
		return m
	case r < churnResubmit+churnPrefix:
		m.NodeCounts = m.NodeCounts[:1+rng.IntN(len(m.NodeCounts)-1)]
		return m
	default:
		return freshMatrix(int64(rng.Uint64()))
	}
}

// runJob drives one job like `experiments -server`: submit, wait for the
// terminal state, stream the results. It waits on the job's event stream
// rather than polling, so the latency it reports is not quantized by a poll
// interval. A progressive client (fleet) also fetches the results prefix as
// progress events arrive, so first_row_s sees the first row land.
func (e *serviceEnv) runJob(m experiment.Matrix, rec *recorder, key string, progressive bool) jobOutcome {
	out := jobOutcome{matrix: m}
	t0 := time.Now()
	job := rec.start("bench.job", key, 0)
	defer job.end()

	spec, err := json.Marshal(m)
	if err != nil {
		out.err = err
		return out
	}
	sp := rec.start("service.submit", key, job.id())
	var created store.Job
	err = e.doJSON(http.MethodPost, "/v1/jobs", bytes.NewReader(spec), http.StatusCreated, &created)
	sp.end()
	if err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	if e.fleet {
		defer func() {
			if at, ok := e.grantedAt(created.ID); ok {
				rec.add("dispatch.grant_wait", key, job.id(), t0, at)
			}
		}()
	}

	var firstAt time.Time
	sp = rec.start("service.wait", key, job.id())
	out.job, err = e.waitEvents(created.ID, func(completed int) {
		if !progressive || !firstAt.IsZero() || completed == 0 {
			return
		}
		if at, ok := e.firstByte(created.ID); ok {
			firstAt = at
		}
	})
	sp.end()
	if err != nil {
		out.err = fmt.Errorf("wait %s: %w", created.ID, err)
		return out
	}
	if out.job.State != store.Done {
		out.err = fmt.Errorf("job %s ended %s: %s", created.ID, out.job.State, out.job.Error)
		return out
	}

	sp = rec.start("service.stream", key, job.id())
	resp, err := e.client.Get(e.ts.URL + "/v1/jobs/" + created.ID + "/results")
	if err != nil {
		sp.end()
		out.err = err
		return out
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.Peek(1); err == nil && firstAt.IsZero() {
		firstAt = time.Now()
	}
	out.body, err = io.ReadAll(br)
	lastAt := time.Now()
	resp.Body.Close()
	sp.end()
	if err == nil && resp.StatusCode != http.StatusOK {
		e.httpErrors.Add(1)
		err = fmt.Errorf("results: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		out.err = err
		return out
	}
	if firstAt.IsZero() {
		out.err = fmt.Errorf("job %s: empty results stream", created.ID)
		return out
	}
	out.sample = jobSample{first: firstAt.Sub(t0), last: lastAt.Sub(t0)}
	return out
}

// waitEvents follows GET /v1/jobs/{id}/events until the server ends the
// stream at the terminal state, calling onProgress with every completed-cell
// count it sees, and returns the last state record.
func (e *serviceEnv) waitEvents(id string, onProgress func(completed int)) (store.Job, error) {
	resp, err := e.client.Get(e.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return store.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.httpErrors.Add(1)
		return store.Job{}, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var last store.Job
	seen := false
	var name string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			var c struct {
				Completed int `json:"completed"`
			}
			if json.Unmarshal(data, &c) == nil {
				onProgress(c.Completed)
			}
			if name == "state" {
				if err := json.Unmarshal(data, &last); err != nil {
					return store.Job{}, fmt.Errorf("decode state event: %w", err)
				}
				seen = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return store.Job{}, err
	}
	if seen && last.State.Terminal() {
		return last, nil
	}
	// The server may end the stream right after a non-terminal state event
	// once the job has finished; the job record then has the final state.
	if err := e.getJSON("/v1/jobs/"+id, &last); err != nil {
		return store.Job{}, err
	}
	if !last.State.Terminal() {
		return store.Job{}, errors.New("event stream ended before a terminal state")
	}
	return last, nil
}

// firstByte fetches the job's results prefix and reports when its first
// byte arrived, if any row has landed.
func (e *serviceEnv) firstByte(id string) (time.Time, bool) {
	resp, err := e.client.Get(e.ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		return time.Time{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.httpErrors.Add(1)
		return time.Time{}, false
	}
	var one [1]byte
	if n, _ := io.ReadFull(resp.Body, one[:]); n == 0 {
		return time.Time{}, false
	}
	at := time.Now()
	io.Copy(io.Discard, resp.Body)
	return at, true
}

// watchGrants wraps the coordinator's handler and notes when each job's
// first shard grant leaves in a heartbeat answer: the end of the job's
// dispatch.grant_wait span. It reads answers the workers receive anyway, so
// it adds no request, and every fleet job, traced or not, passes through it.
func (e *serviceEnv) watchGrants(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/heartbeat") {
			h.ServeHTTP(w, r)
			return
		}
		tee := &teeWriter{ResponseWriter: w}
		h.ServeHTTP(tee, r)
		now := time.Now()
		var hb struct {
			Grants []struct {
				Job string `json:"job"`
			} `json:"grants"`
		}
		if json.Unmarshal(tee.buf.Bytes(), &hb) != nil {
			return
		}
		e.grantMu.Lock()
		defer e.grantMu.Unlock()
		for _, g := range hb.Grants {
			if _, ok := e.granted[g.Job]; !ok {
				e.granted[g.Job] = now
			}
		}
	})
}

// grantedAt reports, once, when the job's first shard was granted.
func (e *serviceEnv) grantedAt(id string) (time.Time, bool) {
	e.grantMu.Lock()
	defer e.grantMu.Unlock()
	at, ok := e.granted[id]
	delete(e.granted, id)
	return at, ok
}

// teeWriter keeps a copy of the answer it passes on.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.ResponseWriter.Write(p)
}

func (e *serviceEnv) getJSON(path string, v any) error {
	return e.doJSON(http.MethodGet, path, nil, http.StatusOK, v)
}

// doJSON makes one request and decodes the JSON answer; any other status
// than want counts as an HTTP error.
func (e *serviceEnv) doJSON(method, path string, body io.Reader, want int, v any) error {
	req, err := http.NewRequest(method, e.ts.URL+path, body)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		e.httpErrors.Add(1)
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, v)
}

// reference is the JSONL an in-process Runner prints for m, computed once
// per distinct matrix without any cache, and untimed.
func (e *serviceEnv) reference(m experiment.Matrix) ([]byte, error) {
	spec, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if ref, ok := e.refs[string(spec)]; ok {
		return ref, nil
	}
	ref, err := runnerJSONL(m, nil, "")
	if err != nil {
		return nil, err
	}
	e.refs[string(spec)] = ref
	return ref, nil
}

// check compares every job's result stream byte for byte with the
// reference Runner's JSONL for the same matrix. It records no spans.
func (e *serviceEnv) check(*recorder) (attempted, failed int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, out := range e.outcomes {
		if out.err != nil {
			continue // already counted as a failed job
		}
		attempted++
		ref, err := e.reference(out.matrix)
		if err != nil || !bytes.Equal(out.body, ref) {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %s: results differ from the in-process Runner (%v)\n", out.job.ID, err)
		}
	}
	return attempted, failed
}

// layers derives the service-side per-layer metrics from the traced load,
// then probes the layers below with cells of the workload's own matrices.
func (e *serviceEnv) layers(rec *recorder, m map[string]float64) (attempted, failed int, err error) {
	e.serviceMetrics(rec, m)
	e.mu.Lock()
	traced := append([]jobOutcome(nil), e.traced...)
	e.mu.Unlock()
	jobCounts(traced, m)

	if e.fleet {
		e.dispatchMetrics(rec, m)
	} else {
		a, f, err := probeFleet(e.seed, filepath.Join(e.dir, "probe-fleet"), rec, m)
		attempted, failed = attempted+a, failed+f
		if err != nil {
			return attempted, failed, err
		}
	}

	if err := probeStore(rec, e.st, filepath.Join(e.dir, "store"), m); err != nil {
		return attempted, failed, err
	}
	stats, err := e.cacheStats()
	if err != nil {
		return attempted, failed, err
	}
	m["cache.entries"], m["cache.bytes"] = float64(stats.Entries), float64(stats.TotalBytes)

	// Replay and unit costs on cells of the first traced job's matrix.
	var first *jobOutcome
	var cells []experiment.Scenario
	var results []experiment.ScenarioResult
	for i, out := range traced {
		if out.err != nil {
			continue
		}
		scs, err := out.matrix.Scenarios()
		if err != nil {
			return attempted, failed, err
		}
		rows, err := decodeRows(out.body)
		if err != nil || len(rows) != len(scs) {
			return attempted, failed, fmt.Errorf("job %s: undecodable results: %v", out.job.ID, err)
		}
		first, cells, results = &traced[i], scs, rows
		break
	}
	if first == nil {
		return attempted, failed, errors.New("traced load completed no job")
	}
	// The workload's cells run inside sweepd, where the benchmark records
	// no spans, so the experiment.cell spans time this matrix replayed on
	// an in-process Runner (2 workers, no cache), whose stream must equal
	// the job's.
	replay, err := runnerJSONL(first.matrix, rec, "replay-"+first.job.ID)
	if err != nil {
		return attempted, failed, err
	}
	attempted++
	if !bytes.Equal(replay, first.body) {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: job %s: results differ from the replayed Runner\n", first.job.ID)
	}
	a, f, err := probeLayers(rec, e.seed, cells, results, 2, filepath.Join(e.dir, "probe-cache"), m)
	return attempted + a, failed + f, err
}

// serviceMetrics reads the client-side service spans.
func (e *serviceEnv) serviceMetrics(rec *recorder, m map[string]float64) {
	m["service.submit_ms.p50"] = median(rec.durations("service.submit")) / 1e6
	m["service.wait_ms.p50"] = median(rec.durations("service.wait")) / 1e6
	m["service.stream_ms.p50"] = median(rec.durations("service.stream")) / 1e6
	m["service.http_errors"] = float64(e.httpErrors.Load())
	m["experiment.expand_ms"] = median(e.expand) / 1e6
}

// cacheStats is the footprint of the result cache(s) the jobs ran over:
// the server's for service-churn, the workers' for a fleet.
func (e *serviceEnv) cacheStats() (cache.Stats, error) {
	dirs := []string{filepath.Join(e.dir, "cache")}
	if e.fleet {
		dirs = nil
		for i := 0; i < fleetWorkers; i++ {
			dirs = append(dirs, filepath.Join(e.dir, fmt.Sprintf("worker%d", i)))
		}
	}
	var sum cache.Stats
	for _, d := range dirs {
		c, err := cache.Open(d)
		if err != nil {
			return sum, err
		}
		st, err := c.Stats()
		if err != nil {
			return sum, err
		}
		sum.Entries += st.Entries
		sum.TotalBytes += st.TotalBytes
	}
	return sum, nil
}

// jobCounts reports the Runner's per-job counters from the terminal job
// records, as per-job means. A manifest hit is a job served whole from the
// cache without the per-cell prober (hits == cells, none resumed).
func jobCounts(outs []jobOutcome, m map[string]float64) {
	var cells, computed, hits, manifest []float64
	for _, out := range outs {
		if out.err != nil {
			continue
		}
		j := out.job
		cells = append(cells, float64(j.Cells))
		computed = append(computed, float64(j.Computed))
		hits = append(hits, float64(j.CacheHits))
		mh := 0.0
		if j.Cells > 0 && j.CacheHits == j.Cells && j.Resumed == 0 {
			mh = 1
		}
		manifest = append(manifest, mh)
	}
	m["experiment.cells"] = mean(cells)
	m["experiment.computed"] = mean(computed)
	m["experiment.cache_hits"] = mean(hits)
	m["experiment.manifest_hits"] = mean(manifest)
}

// probeService runs a short service-churn load on its own server so the
// sweep workloads also report the service and store layers. Its spans go
// to rec under a "probe." prefix, apart from the workload's own.
func probeService(seed int64, dir string, rec *recorder, m map[string]float64) (attempted, failed int, err error) {
	se, err := startChurn(seed, dir, 0)
	if err != nil {
		return 0, 0, err
	}
	defer se.close()
	prec := newRecorder()
	st, err := se.load(churnProbeSecs, prec)
	if err != nil {
		return 0, 0, err
	}
	se.serviceMetrics(prec, m)
	a, f := se.check(prec)
	attempted, failed = st.attempted+a, st.failed+f
	if err := probeStore(prec, se.st, filepath.Join(dir, "store"), m); err != nil {
		return attempted, failed, err
	}
	rec.merge(prec, "probe.")
	return attempted, failed, nil
}

// probeFleet runs a short fleet load so the workloads without a
// coordinator also report the dispatch layer.
func probeFleet(seed int64, dir string, rec *recorder, m map[string]float64) (attempted, failed int, err error) {
	fe, err := startFleet(seed, dir)
	if err != nil {
		return 0, 0, err
	}
	defer fe.close()
	prec := newRecorder()
	st, err := fe.load(fleetProbeSecs, prec)
	if err != nil {
		return 0, 0, err
	}
	fe.dispatchMetrics(prec, m)
	a, f := fe.check(prec)
	rec.merge(prec, "probe.")
	return st.attempted + a, st.failed + f, nil
}

// dispatchMetrics reads the grant-wait spans and the shard count of every
// traced job from the coordinator's store.
func (e *serviceEnv) dispatchMetrics(rec *recorder, m map[string]float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var shards []float64
	for _, out := range e.traced {
		if as, ok := e.st.Assignments(out.job.ID); ok {
			shards = append(shards, float64(len(as)))
		}
	}
	m["dispatch.grant_wait_ms"] = median(rec.durations("dispatch.grant_wait")) / 1e6
	m["dispatch.shards"] = mean(shards)
}

// probeStore times the store's synced job update and its checkpoint on a
// store the benchmark owns, and reports its footprint.
func probeStore(rec *recorder, st *store.Store, dir string, m map[string]float64) error {
	m["store.rows"] = float64(st.RowCount())
	for name, file := range map[string]string{"store.snapshot_bytes": "snapshot.json", "store.wal_bytes": "wal.log"} {
		fi, err := os.Stat(filepath.Join(dir, file))
		switch {
		case err == nil:
			m[name] = float64(fi.Size())
		case errors.Is(err, os.ErrNotExist):
			m[name] = 0
		default:
			return err
		}
	}
	jobs := st.Jobs()
	if len(jobs) == 0 {
		return errors.New("store probe: no jobs")
	}
	id := jobs[len(jobs)-1].ID
	for i := 0; i < 20; i++ {
		sp := rec.start("store.sync_update", id, 0)
		_, err := st.UpdateJob(id, true, func(*store.Job) {})
		sp.endOps(1)
		if err != nil {
			return err
		}
	}
	for i := 0; i < 5; i++ {
		sp := rec.start("store.checkpoint", id, 0)
		_, _, err := st.GC()
		sp.endOps(1)
		if err != nil {
			return err
		}
	}
	m["store.sync_update_ms"] = rec.perOp("store.sync_update") / 1e6
	m["store.checkpoint_ms"] = rec.perOp("store.checkpoint") / 1e6
	return nil
}

// runnerJSONL runs m on an in-process Runner with no cache and returns the
// JSONL it prints — the reference every service stream must equal. Traced
// runs time each cell through a span-recording executor.
func runnerJSONL(m experiment.Matrix, rec *recorder, key string) ([]byte, error) {
	var buf bytes.Buffer
	opts := []experiment.Option{experiment.WithWorkers(nproc), experiment.WithSinks(&experiment.JSONLSink{W: &buf})}
	if rec != nil {
		scs, err := m.Scenarios()
		if err != nil {
			return nil, err
		}
		ex := newCellExecutor(len(scs), rec, 0, key)
		defer ex.close()
		opts = append(opts, experiment.WithExecutor(ex))
	}
	if _, err := experiment.NewRunner(opts...).Run(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeRows parses a JSONL results stream.
func decodeRows(body []byte) ([]experiment.ScenarioResult, error) {
	var out []experiment.ScenarioResult
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var r experiment.ScenarioResult
		if err := dec.Decode(&r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
