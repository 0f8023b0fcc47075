package service

// This file is the worker half of distributed sweeps: the client a sweepd
// started with -join runs instead of serving HTTP. A Worker registers with
// the coordinator, heartbeats to hold its lease, executes the shards its
// heartbeats grant it on a local experiment.Runner (sharing the exact
// per-scenario-seed determinism of a solo run), streams each completed
// cell's row back as it lands, and reports the shard done once the range is
// complete.
//
// The heartbeat ticker is the busy cadence. A worker heartbeats at once
// after (re-)registering and after each acknowledged completion, and every
// heartbeat reports the shards it is running; an idle worker's heartbeat is
// held by the coordinator until there is work for it, so a grant arrives as
// soon as a job is admitted rather than on the next tick.
//
// Reconciliation is list-based: every heartbeat response carries the
// worker's complete grant set, so a shard missing from the list — withdrawn
// after this worker's lease briefly lapsed, or its job canceled — has its
// execution context canceled, and a shard with a new attempt number starts
// a fresh execution. A worker that loses its registration (coordinator
// restart, lease expiry during a partition) re-registers under a new
// identity and simply picks up whatever work it is granted next; the cells
// it already computed are in its cache, so a re-granted shard resumes
// instead of recomputing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"iotmpc/internal/experiment"
)

// WorkerConfig wires a Worker to its coordinator and local execution knobs.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. http://host:8080.
	// Required.
	Coordinator string
	// Name labels this worker in the coordinator's registry and healthz.
	Name string
	// CacheDir roots the local result cache. Required. Pointing every
	// worker at one shared directory makes re-granted shards resume from
	// the dead worker's completed cells.
	CacheDir string
	// Workers, TrialWorkers, Lanes configure the local Runner exactly like
	// the server-side knobs of the same names.
	Workers      int
	TrialWorkers int
	Lanes        int
	// HeartbeatEvery overrides the heartbeat cadence while busy; zero
	// selects a third of the lease TTL the coordinator grants at
	// registration. Idle heartbeats are held by the coordinator instead.
	HeartbeatEvery time.Duration
	// Chaos optionally injects faults (see ParseChaos); nil injects none.
	Chaos *Chaos
	// Client overrides the HTTP client; nil selects a 30s-timeout default.
	Client *http.Client
	// Log receives operational chatter; nil discards it.
	Log io.Writer
}

// Worker executes shards for one coordinator. Construct with NewWorker and
// drive with Run, which blocks until the context is canceled.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	id       string
	leaseTTL time.Duration

	mu     sync.Mutex
	execs  map[string]*shardExec // key: job/shard/attempt
	repoll chan struct{}         // see pollSoon
}

// shardExec is one in-flight shard execution.
type shardExec struct {
	cancel context.CancelFunc
	done   chan struct{}
}

func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("worker: empty coordinator URL")
	}
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("worker: empty cache directory")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return &Worker{
		cfg:    cfg,
		client: client,
		execs:  make(map[string]*shardExec),
		repoll: make(chan struct{}, 1),
	}, nil
}

// registerRetryEvery paces registration attempts against a coordinator that
// is not up yet (or briefly unreachable after a restart).
const registerRetryEvery = time.Second

// Run is the worker's main loop: register, then heartbeat until ctx is
// canceled, reconciling shard executions against each response's grant
// list. In-flight executions are canceled (not completed) on exit; their
// partial work is in the cache, so whoever inherits the shard resumes it.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	every := w.cfg.HeartbeatEvery
	if every <= 0 {
		every = w.leaseTTL / 3
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	defer w.cancelAll()
	w.pollSoon() // heartbeat at once after registering
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		case <-w.repoll:
		}
		if w.cfg.Chaos.dropHeartbeat() {
			fmt.Fprintf(w.cfg.Log, "worker %s: chaos dropped heartbeat\n", w.id)
			continue
		}
		grants, lost, err := w.heartbeat(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			fmt.Fprintf(w.cfg.Log, "worker %s: heartbeat: %v\n", w.id, err)
			continue
		}
		if lost {
			// The coordinator no longer knows this identity: lease expired
			// under us, or the coordinator restarted. Anything we are
			// executing has been (or will be) re-granted elsewhere — stop,
			// re-register, start clean. Completed cells stay in the cache.
			fmt.Fprintf(w.cfg.Log, "worker %s: lease lost; re-registering\n", w.id)
			w.cancelAll()
			if err := w.register(ctx); err != nil {
				return err
			}
			w.pollSoon()
			continue
		}
		w.reconcile(ctx, grants)
	}
}

// pollSoon makes the main loop heartbeat without waiting for its ticker.
func (w *Worker) pollSoon() {
	select {
	case w.repoll <- struct{}{}:
	default:
	}
}

// register obtains a fresh identity, retrying until the coordinator answers
// or ctx is canceled.
func (w *Worker) register(ctx context.Context) error {
	body, _ := json.Marshal(workerReg{Name: w.cfg.Name})
	for {
		w.cfg.Chaos.sleep()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			w.cfg.Coordinator+"/v1/workers", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.client.Do(req)
		if err == nil {
			if resp.StatusCode == http.StatusCreated {
				var info workerInfo
				err := json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if err != nil {
					return fmt.Errorf("worker: decode registration: %w", err)
				}
				w.id = info.ID
				w.leaseTTL = time.Duration(info.LeaseMillis) * time.Millisecond
				fmt.Fprintf(w.cfg.Log, "worker %s (%s): registered with %s (lease %s)\n",
					w.id, w.cfg.Name, w.cfg.Coordinator, w.leaseTTL)
				return nil
			}
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusConflict {
				// Not a coordinator: retrying will never help.
				return fmt.Errorf("worker: %s refused registration: %s", w.cfg.Coordinator, raw)
			}
			fmt.Fprintf(w.cfg.Log, "worker: register: status %d: %s\n", resp.StatusCode, raw)
		} else {
			fmt.Fprintf(w.cfg.Log, "worker: register: %v\n", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(registerRetryEvery):
		}
	}
}

// heartbeat renews the lease and fetches the grant list, reporting the
// shards this worker is running; with none running the coordinator holds
// the answer until it has work. lost=true means the coordinator does not
// recognize this worker anymore.
func (w *Worker) heartbeat(ctx context.Context) (grants []shardGrant, lost bool, err error) {
	w.mu.Lock()
	running := make([]string, 0, len(w.execs))
	for key := range w.execs {
		running = append(running, key)
	}
	w.mu.Unlock()
	body, err := json.Marshal(heartbeatRequest{Running: running})
	if err != nil {
		return nil, false, err
	}
	w.cfg.Chaos.sleep()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/workers/%s/heartbeat", w.cfg.Coordinator, w.id), bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var hb heartbeatResponse
		if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
			return nil, false, err
		}
		return hb.Grants, false, nil
	case http.StatusGone, http.StatusNotFound:
		return nil, true, nil
	default:
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, false, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
}

// reconcile aligns local executions with the grant list: start what is
// granted and not running, cancel what is running and not granted.
func (w *Worker) reconcile(ctx context.Context, grants []shardGrant) {
	granted := make(map[string]shardGrant, len(grants))
	for _, g := range grants {
		granted[grantKey(g)] = g
	}
	w.mu.Lock()
	var stale []*shardExec
	for key, ex := range w.execs {
		if _, ok := granted[key]; !ok {
			stale = append(stale, ex)
			delete(w.execs, key)
		}
	}
	var start []shardGrant
	for key, g := range granted {
		if _, ok := w.execs[key]; !ok {
			ectx, cancel := context.WithCancel(ctx)
			ex := &shardExec{cancel: cancel, done: make(chan struct{})}
			w.execs[key] = ex
			start = append(start, g)
			go w.runShard(ectx, g, ex)
		}
	}
	w.mu.Unlock()
	for _, ex := range stale {
		ex.cancel()
	}
	for _, g := range start {
		fmt.Fprintf(w.cfg.Log, "worker %s: granted shard %d/%d of %s (attempt %d)\n",
			w.id, g.Shard, g.Total, g.Job, g.Attempt)
	}
}

func grantKey(g shardGrant) string {
	return fmt.Sprintf("%s/%d/%d", g.Job, g.Shard, g.Attempt)
}

// cancelAll stops every in-flight execution and waits for the goroutines.
func (w *Worker) cancelAll() {
	w.mu.Lock()
	execs := w.execs
	w.execs = make(map[string]*shardExec)
	w.mu.Unlock()
	for _, ex := range execs {
		ex.cancel()
	}
	for _, ex := range execs {
		<-ex.done
	}
}

// runShard executes one granted shard and reports it. Failures other than
// cancellation are logged and abandoned — the lease machinery re-queues the
// shard; there is deliberately no failure-report RPC, because a worker that
// can fail loudly is indistinguishable, to the coordinator, from one that
// dies silently, and one recovery path is better than two. An acknowledged
// report wakes the main loop once the shard has left the running set, so
// the next heartbeat goes out idle and at once.
func (w *Worker) runShard(ctx context.Context, g shardGrant, ex *shardExec) {
	defer close(ex.done)
	acked := false
	defer func() {
		w.mu.Lock()
		if w.execs[grantKey(g)] == ex {
			delete(w.execs, grantKey(g))
		}
		w.mu.Unlock()
		if acked {
			w.pollSoon()
		}
	}()
	var m experiment.Matrix
	if err := json.Unmarshal(g.Spec, &m); err != nil {
		fmt.Fprintf(w.cfg.Log, "worker %s: shard %s: decode spec: %v\n", w.id, grantKey(g), err)
		return
	}
	up := &uploadSink{worker: w, grant: g, ctx: ctx}
	opts := []experiment.Option{
		experiment.WithCache(w.cfg.CacheDir),
		experiment.WithShard(experiment.ShardSpec{Shard: g.Shard, Total: g.Total}),
		experiment.WithContext(ctx),
		experiment.WithWorkers(w.cfg.Workers),
		experiment.WithLanes(w.cfg.Lanes),
		experiment.WithSinks(up),
	}
	if w.cfg.TrialWorkers > 0 {
		opts = append(opts, experiment.WithTrialWorkers(w.cfg.TrialWorkers))
	}
	if _, err := experiment.NewRunner(opts...).Run(m); err != nil {
		if ctx.Err() == nil {
			fmt.Fprintf(w.cfg.Log, "worker %s: shard %s: %v\n", w.id, grantKey(g), err)
		}
		return
	}
	acked = w.reportDone(ctx, g, up.summary, up)
}

// reportRetryEvery paces done-report retries against upload hiccups.
const reportRetryEvery = 500 * time.Millisecond

// reportDone flushes any rows still pending and posts the completion
// report, retrying until it lands, the coordinator declares it stale, or
// the grant is withdrawn (ctx canceled). It reports whether the
// coordinator acknowledged the report.
func (w *Worker) reportDone(ctx context.Context, g shardGrant, sum experiment.RunSummary, up *uploadSink) bool {
	body, err := json.Marshal(shardDoneRequest{Attempt: g.Attempt, Summary: sum})
	if err != nil {
		fmt.Fprintf(w.cfg.Log, "worker %s: shard %s: encode report: %v\n", w.id, grantKey(g), err)
		return false
	}
	url := fmt.Sprintf("%s/v1/workers/%s/shards/%s/%d/done", w.cfg.Coordinator, w.id, g.Job, g.Shard)
	for ctx.Err() == nil {
		if err := up.flush(); err != nil {
			fmt.Fprintf(w.cfg.Log, "worker %s: shard %s: flush rows: %v\n", w.id, grantKey(g), err)
		} else {
			w.cfg.Chaos.sleep()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				return false
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := w.client.Do(req)
			if err == nil {
				var ack shardDoneResponse
				decErr := json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK && decErr == nil && (ack.Done || ack.Stale):
					fmt.Fprintf(w.cfg.Log, "worker %s: shard %s done (stale=%v)\n", w.id, grantKey(g), ack.Stale)
					return true
				case resp.StatusCode == http.StatusConflict:
					// Rows missing on the coordinator (a lost upload):
					// re-send everything and retry.
					up.rewind()
				}
			} else {
				fmt.Fprintf(w.cfg.Log, "worker %s: shard %s: report: %v\n", w.id, grantKey(g), err)
			}
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(reportRetryEvery):
		}
	}
	return false
}

// uploadSink is the worker-side experiment.Sink: it buffers each completed
// cell's row — the exact bytes a solo run's cache entry holds — and
// streams them to the coordinator as they land. An upload failure keeps the
// rows buffered; the next OnResult (or the done report) re-flushes, so a
// flaky link degrades to batching, never to loss.
type uploadSink struct {
	worker *Worker
	grant  shardGrant
	ctx    context.Context

	mu      sync.Mutex
	rows    [][]byte
	sent    int
	summary experiment.RunSummary
}

func (u *uploadSink) OnStart(plan experiment.Plan) error { return nil }

func (u *uploadSink) OnResult(r experiment.ScenarioResult) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.rows = append(u.rows, raw)
	u.mu.Unlock()
	if err := u.flush(); err != nil {
		fmt.Fprintf(u.worker.cfg.Log, "worker %s: shard %s: upload: %v (buffered)\n",
			u.worker.id, grantKey(u.grant), err)
	}
	u.worker.cfg.Chaos.maybeCrash()
	return nil
}

func (u *uploadSink) OnFinish(sum experiment.RunSummary) error {
	u.summary = sum
	return nil
}

// flush uploads the unsent row suffix as one JSONL batch.
func (u *uploadSink) flush() error {
	u.mu.Lock()
	pending := u.rows[u.sent:]
	mark := len(u.rows)
	u.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	var body bytes.Buffer
	for _, row := range pending {
		body.Write(row)
		body.WriteByte('\n')
	}
	u.worker.cfg.Chaos.sleep()
	url := fmt.Sprintf("%s/v1/workers/%s/shards/%s/%d/rows",
		u.worker.cfg.Coordinator, u.worker.id, u.grant.Job, u.grant.Shard)
	req, err := http.NewRequestWithContext(u.ctx, http.MethodPost, url, &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := u.worker.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	u.mu.Lock()
	if mark > u.sent {
		u.sent = mark
	}
	u.mu.Unlock()
	return nil
}

// rewind marks every row unsent, forcing the next flush to re-upload the
// whole shard (the coordinator's cache Put is an idempotent overwrite, so
// re-sending is always safe).
func (u *uploadSink) rewind() {
	u.mu.Lock()
	u.sent = 0
	u.mu.Unlock()
}
