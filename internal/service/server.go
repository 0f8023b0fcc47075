// Package service is the sweep service's HTTP layer: a versioned job API
// (/v1) over the experiment Runner. POST /v1/jobs accepts a Matrix spec as
// JSON and queues it; the scheduler admits up to MaxActiveJobs jobs at once,
// and their Runners share one worker pool that interleaves cells across jobs
// under deficit round-robin (see scheduler.go) — a 1-cell job submitted
// behind a 10k-cell sweep finishes in seconds instead of hours. The Sink
// interface is the transport boundary: a storeSink persists every completed
// cell into the durable store and fans progress out to SSE subscribers.
// Results stream back as JSONL (GET /v1/jobs/{id}/results) in deterministic
// index order, byte-identical to what a CLI run of the same matrix prints —
// per-scenario derived seeds and index-ordered emission make the
// interleaving invisible. All jobs share one content-addressed result cache,
// so a matrix any job has computed before costs nothing to run again.
//
// Jobs can be canceled (DELETE /v1/jobs/{id}): a queued job dies instantly,
// a running one has its context canceled — in-flight cells finish, parked
// cells degenerate to skips — and lands in the terminal `canceled` state.
//
// Crash safety composes from the layers below: the store re-queues jobs
// that were running when the process died, and the Runner's cache prober
// resumes them computing only the cells the dead run never finished.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"iotmpc/internal/cache"
	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// Config wires a Server to its store, cache, and Runner knobs.
type Config struct {
	// Store is the durable job/result store. Required.
	Store *store.Store
	// CacheDir roots the content-addressed result cache every job shares —
	// the deduplicated corpus. Required.
	CacheDir string
	// Workers sizes the shared cell pool all active jobs draw from, and
	// TrialWorkers and Lanes configure each job's Runner exactly like the
	// CLI flags of the same names (zero selects the defaults).
	Workers      int
	TrialWorkers int
	Lanes        int
	// MaxActiveJobs caps how many jobs hold Runners at once. More active
	// jobs means fairer latency for short jobs but more memory held per
	// sweep; zero selects 4.
	MaxActiveJobs int
	// Coordinator switches job execution from the local Runner to
	// distributed dispatch: jobs are partitioned into shard assignments and
	// executed by worker sweepds that register over POST /v1/workers (see
	// dispatch.go). The store persists assignments, so a restarted
	// coordinator resumes dispatch without recomputing finished shards.
	Coordinator bool
	// LeaseTTL bounds how long a worker may go silent before its lease
	// expires and its shards are re-queued elsewhere; zero selects 15s.
	// LeaseScanEvery is the expiry-scan cadence; zero selects LeaseTTL/4.
	LeaseTTL       time.Duration
	LeaseScanEvery time.Duration
	// ShardBackoffBase and ShardBackoffMax shape the exponential backoff
	// between attempts of a repeatedly-failing shard (zero: 1s base, 30s
	// cap), and MaxShardAttempts caps grants per shard before the job fails
	// with a ShardError naming the shard (zero: 5).
	ShardBackoffBase time.Duration
	ShardBackoffMax  time.Duration
	MaxShardAttempts int
}

// maxSpecBytes bounds a POST /v1/jobs body; a matrix spec is a few hundred
// bytes of axis lists, so a megabyte is already generous.
const maxSpecBytes = 1 << 20

// defaultMaxActiveJobs is the MaxActiveJobs zero default.
const defaultMaxActiveJobs = 4

// activeJob is the scheduler's handle on a claimed job: the context its
// Runner runs under, and whether a client asked for cancellation (which
// disambiguates context.Canceled from a shutdown drain).
type activeJob struct {
	cancel   context.CancelFunc
	ctx      context.Context
	canceled bool // guarded by Server.jobMu
}

// Server is the sweep service: HTTP handlers plus the scheduler.
// Construct with New, serve Handler, call Start to begin executing jobs,
// and Close to drain (in-flight jobs are canceled and re-queued as
// resumable — the store must outlive the Close call).
type Server struct {
	cfg    Config
	cache  *cache.Store
	hub    *hub
	mux    *http.ServeMux
	pool   *pool
	disp   *dispatcher // non-nil exactly when cfg.Coordinator
	wake   chan struct{}
	slots  chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	jobMu   sync.Mutex
	running map[string]*activeJob
}

// New builds a Server over an open store: jobs left running by a crashed or
// drained predecessor are re-queued for resume, jobs predating the schema-2
// key lists get them backfilled (so GC can account for their rows), and
// everything queued is picked up once Start is called.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("service: nil store")
	}
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("service: empty cache directory (the shared result corpus is required)")
	}
	cacheStore, err := cache.Open(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	if cfg.MaxActiveJobs <= 0 {
		cfg.MaxActiveJobs = defaultMaxActiveJobs
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   cacheStore,
		hub:     newHub(),
		pool:    newPool(workers),
		wake:    make(chan struct{}, 1),
		slots:   make(chan struct{}, cfg.MaxActiveJobs),
		ctx:     ctx,
		cancel:  cancel,
		running: make(map[string]*activeJob),
	}
	if cfg.Coordinator {
		s.disp = newDispatcher(cfg)
	}
	for _, job := range cfg.Store.Jobs() {
		// Recovery: a job that was Running when the previous process stopped
		// never reached a terminal state. Its completed cells are in the
		// cache, so re-queuing it makes the next execution a resume that
		// computes only the missing cells.
		if job.State == store.Running {
			if _, err := cfg.Store.UpdateJob(job.ID, true, func(j *store.Job) {
				j.State = store.Queued
				j.Error = "resumable: interrupted by restart"
			}); err != nil {
				cancel()
				s.pool.close()
				return nil, err
			}
		}
		// Backfill: a job created before schema 2 has no recorded row keys,
		// which blocks GC from sweeping any rows (it cannot know what the
		// job references). The keys are a pure function of the stored spec,
		// so recompute them. Best-effort — a spec that no longer expands
		// just stays unrecorded and GC stays conservative.
		if _, ok := cfg.Store.JobKeys(job.ID); !ok {
			var m experiment.Matrix
			if json.Unmarshal(job.Spec, &m) != nil {
				continue
			}
			scenarios, err := m.Scenarios()
			if err != nil {
				continue
			}
			keys, err := experiment.ScenarioKeys(scenarios)
			if err != nil {
				continue
			}
			if err := cfg.Store.SetJobKeys(job.ID, keys); err != nil {
				cancel()
				s.pool.close()
				return nil, err
			}
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	// The distributed-dispatch surface. Registered unconditionally so a
	// worker joining a non-coordinator gets a crisp 409 instead of a 404
	// indistinguishable from a typoed path.
	s.mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	s.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	s.mux.HandleFunc("POST /v1/workers/{id}/shards/{job}/{shard}/rows", s.handleShardRows)
	s.mux.HandleFunc("POST /v1/workers/{id}/shards/{job}/{shard}/done", s.handleShardDone)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the scheduler goroutine, plus the lease-expiry scan when
// running as a coordinator.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.runLoop()
	if s.disp != nil {
		every := s.cfg.LeaseScanEvery
		if every <= 0 {
			every = s.disp.leaseTTL / 4
		}
		s.wg.Add(1)
		go s.scanLoop(every)
	}
}

// Close drains the service: every in-flight job's Runner context is canceled
// (in-flight cells finish, everything not yet dispatched is skipped), the
// jobs are re-queued as resumable, the scheduler exits, and the shared cell
// pool shuts down. The store stays open — closing it is the owner's job,
// after Close returns.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	s.pool.close()
}

// notify nudges the scheduler; the buffered channel coalesces bursts.
func (s *Server) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// runLoop is the job-admission half of the scheduler: it claims queued jobs
// oldest-first into the MaxActiveJobs slots and hands each to a goroutine
// that drives its Runner. Cell-level interleaving across the admitted jobs
// is the pool's job (scheduler.go). The slot is acquired BEFORE claiming so
// a job is never marked Running while it cannot actually start.
func (s *Server) runLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case s.slots <- struct{}{}:
		}
		id, ok := s.claimQueued()
		for !ok {
			select {
			case <-s.ctx.Done():
				<-s.slots
				return
			case <-s.wake:
			}
			id, ok = s.claimQueued()
		}
		s.wg.Add(1)
		go func(id string) {
			defer s.wg.Done()
			err := s.runJob(id)
			<-s.slots
			if err != nil {
				// A store write failure means no progress can be recorded
				// truthfully; executing more jobs would lie. Stop scheduling.
				s.cancel()
				return
			}
			s.notify()
		}(id)
	}
}

// claimQueued atomically picks the oldest queued job, marks it Running, and
// registers its cancelable context. jobMu makes the claim atomic with
// respect to DELETE: a job is never both canceled-as-queued and claimed.
func (s *Server) claimQueued() (string, bool) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	for _, job := range s.cfg.Store.Jobs() {
		if job.State != store.Queued {
			continue
		}
		updated, err := s.cfg.Store.UpdateJob(job.ID, true, func(j *store.Job) {
			j.State = store.Running
			j.Error = ""
		})
		if err != nil {
			continue
		}
		jctx, cancel := context.WithCancel(s.ctx)
		s.running[job.ID] = &activeJob{ctx: jctx, cancel: cancel}
		s.publishState(updated)
		return job.ID, true
	}
	return "", false
}

// runJob executes one claimed job on the shared pool. The returned error is
// a STORE failure — job-level failures (bad spec, sweep error, cancellation)
// are recorded on the job itself and do not stop the scheduler.
func (s *Server) runJob(id string) error {
	s.jobMu.Lock()
	aj := s.running[id]
	s.jobMu.Unlock()
	if aj == nil {
		return fmt.Errorf("service: job %s not claimed", id)
	}
	defer aj.cancel()
	job, ok := s.cfg.Store.Job(id)
	if !ok {
		s.unclaim(id)
		return fmt.Errorf("service: claimed job %s vanished", id)
	}

	var m experiment.Matrix
	if err := json.Unmarshal(job.Spec, &m); err != nil {
		s.unclaim(id)
		return s.finishJob(id, store.Failed, fmt.Sprintf("decode stored spec: %v", err), nil)
	}
	if s.disp != nil {
		return s.runJobDispatch(id, aj, job, m)
	}
	sink := &storeSink{store: s.cfg.Store, hub: s.hub, jobID: id}
	queue := s.pool.admit(id)
	opts := []experiment.Option{
		experiment.WithWorkers(s.cfg.Workers),
		experiment.WithLanes(s.cfg.Lanes),
		experiment.WithCache(s.cfg.CacheDir),
		experiment.WithContext(aj.ctx),
		experiment.WithExecutor(queue),
		experiment.WithSinks(sink),
	}
	if s.cfg.TrialWorkers > 0 {
		opts = append(opts, experiment.WithTrialWorkers(s.cfg.TrialWorkers))
	}
	_, runErr := experiment.NewRunner(opts...).Run(m)
	s.pool.release(queue)
	canceled := s.unclaim(id)
	switch {
	case runErr == nil:
		return s.finishJob(id, store.Done, "", &sink.summary)
	case canceled && errors.Is(runErr, context.Canceled):
		return s.finishJob(id, store.Canceled,
			fmt.Sprintf("canceled by client after %d/%d cells", sink.completed, sink.cells), nil)
	case s.ctx.Err() != nil && errors.Is(runErr, context.Canceled):
		// Drain, not failure: back to the queue so the next Start — this
		// process's or a successor's — resumes from the cache.
		return s.finishJob(id, store.Queued,
			fmt.Sprintf("resumable: interrupted by shutdown after %d/%d cells", sink.completed, sink.cells), nil)
	default:
		return s.finishJob(id, store.Failed, runErr.Error(), nil)
	}
}

// unclaim drops the job's scheduler handle and reports whether a client
// requested cancellation while it ran.
func (s *Server) unclaim(id string) bool {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	aj := s.running[id]
	delete(s.running, id)
	return aj != nil && aj.canceled
}

// finishJob records a terminal (or re-queued) state plus the run summary and
// broadcasts it. The non-nil return is a store failure, which stops the
// scheduler.
func (s *Server) finishJob(id string, state store.State, errMsg string, sum *experiment.RunSummary) error {
	job, err := s.cfg.Store.UpdateJob(id, true, func(j *store.Job) {
		j.State = state
		j.Error = errMsg
		if sum != nil {
			j.Completed = sum.Cells
			j.CacheHits = sum.CacheHits
			j.Computed = sum.Computed
			j.Resumed = sum.Resumed
		}
	})
	if err != nil {
		return err
	}
	s.publishState(job)
	return nil
}

// publishState broadcasts the job record as an SSE "state" event.
func (s *Server) publishState(job store.Job) {
	if data, err := json.Marshal(job); err == nil {
		s.hub.publish(job.ID, event{name: "state", data: data})
	}
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleSubmit accepts a Matrix spec, validates it, and queues the job.
// Validation failures are invalid_argument envelopes naming the offending
// JSON field — the point of Matrix.Validate — and unknown fields are
// rejected so a typoed axis name cannot silently select a default. The
// job's row keys are recorded at submission, which is what lets GC sweep
// rows once the last referencing job is pruned.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	var m experiment.Matrix
	if err := dec.Decode(&m); err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, decodeField(err),
			"decode matrix spec: "+err.Error())
		return
	}
	if err := m.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, specField(err), err.Error())
		return
	}
	// Expansion probes each backend against each size (typos, unreadable
	// trace files, size conflicts) — still the submitter's fault: 400.
	scenarios, err := m.Scenarios()
	if err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, specField(err), err.Error())
		return
	}
	keys, err := experiment.ScenarioKeys(scenarios)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "", err.Error())
		return
	}
	spec, err := json.Marshal(m)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "", err.Error())
		return
	}
	job, err := s.cfg.Store.CreateJob(spec, len(scenarios))
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "", err.Error())
		return
	}
	if err := s.cfg.Store.SetJobKeys(job.ID, keys); err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "", err.Error())
		return
	}
	s.notify()
	writeJSON(w, http.StatusCreated, job)
}

// handleJob returns one job's record: state, progress, summary counters.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.cfg.Store.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "", "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleCancel is DELETE /v1/jobs/{id}: a queued job is canceled on the
// spot (200 with the terminal record); a running job has its Runner context
// canceled and the response is 202 — the record still says running until
// in-flight cells drain, so clients poll or watch /events for the terminal
// state. Canceling an already-canceled job is idempotent; canceling a done
// or failed job is a conflict.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	job, ok := s.cfg.Store.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "", "no such job")
		return
	}
	switch job.State {
	case store.Queued:
		updated, err := s.cfg.Store.UpdateJob(id, true, func(j *store.Job) {
			j.State = store.Canceled
			j.Error = "canceled by client before start"
		})
		if err != nil {
			httpError(w, http.StatusInternalServerError, codeInternal, "", err.Error())
			return
		}
		s.publishState(updated)
		writeJSON(w, http.StatusOK, updated)
	case store.Running:
		if aj, ok := s.running[id]; ok {
			aj.canceled = true
			aj.cancel()
		}
		writeJSON(w, http.StatusAccepted, job)
	case store.Canceled:
		writeJSON(w, http.StatusOK, job)
	default:
		httpError(w, http.StatusConflict, codeConflict, "",
			fmt.Sprintf("job %s already %s", id, job.State))
	}
}

// listLimitDefault and listLimitMax bound GET /v1/jobs pages.
const (
	listLimitDefault = 100
	listLimitMax     = 1000
)

// jobPage is the GET /v1/jobs body: one page of jobs in ID (creation)
// order. nextAfter is present exactly when the page was truncated — pass it
// back as ?after= to continue.
type jobPage struct {
	Jobs      []store.Job `json:"jobs"`
	NextAfter string      `json:"nextAfter,omitempty"`
}

// handleList is GET /v1/jobs?state=...&limit=...&after=...: the job list
// filtered by state, paginated by ID.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter store.State
	if v := q.Get("state"); v != "" {
		filter = store.State(v)
		switch filter {
		case store.Queued, store.Running, store.Done, store.Failed, store.Canceled:
		default:
			httpError(w, http.StatusBadRequest, codeInvalidArgument, "state",
				fmt.Sprintf("unknown state %q", v))
			return
		}
	}
	limit := listLimitDefault
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, codeInvalidArgument, "limit",
				fmt.Sprintf("limit %q: need a positive integer", v))
			return
		}
		if n > listLimitMax {
			n = listLimitMax
		}
		limit = n
	}
	after := q.Get("after")
	page := jobPage{Jobs: []store.Job{}}
	for _, job := range s.cfg.Store.Jobs() { // sorted by ID = creation order
		if after != "" && job.ID <= after {
			continue
		}
		if filter != "" && job.State != filter {
			continue
		}
		if len(page.Jobs) == limit {
			page.NextAfter = page.Jobs[limit-1].ID
			break
		}
		page.Jobs = append(page.Jobs, job)
	}
	writeJSON(w, http.StatusOK, page)
}

// handleResults streams the job's results as JSONL in index order: for each
// cell, the row persisted by the storeSink — exactly the bytes a CLI run
// with -out jsonl prints. A still-running job streams its completed prefix
// (the X-Sweep-State header says which case the client is in).
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	job, ok := s.cfg.Store.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "", "no such job")
		return
	}
	var m experiment.Matrix
	if err := json.Unmarshal(job.Spec, &m); err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "", "stored spec: "+err.Error())
		return
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "", err.Error())
		return
	}
	keys, err := experiment.ScenarioKeys(scenarios)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-State", string(job.State))
	w.WriteHeader(http.StatusOK)
	for _, key := range keys {
		row, ok := s.cfg.Store.Row(key)
		if !ok {
			// Rows land in index order, so the first gap is the frontier of
			// a job still running (or interrupted): the prefix IS the
			// deterministic stream so far.
			return
		}
		w.Write(row)
		w.Write([]byte{'\n'})
	}
}

// eventsPollInterval is the /events fallback cadence: progress events can be
// dropped for a slow subscriber, so the handler re-reads the job state on a
// timer to guarantee the terminal state is always delivered.
const eventsPollInterval = time.Second

// handleEvents streams a job's lifecycle as server-sent events: an initial
// "state" snapshot, "progress" per completed cell, and a final "state" when
// the job reaches a terminal state — done, failed, or canceled — which also
// ends the stream. Hub-published events carry "id:" lines; a reconnecting
// client that sends the standard Last-Event-ID header gets the events it
// missed replayed from the hub's ring instead of silently losing them, or —
// when the gap outran the ring — a fresh state snapshot to resynchronize.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Subscribe BEFORE reading the job: an event published afterwards is
	// in the queue (or reflected by the poll), one published before is
	// reflected by the read, and the `sent` cursor drops whatever both
	// paths deliver. Reading first would let a job end in between and
	// leave its final event undelivered until the poll.
	sub := s.hub.subscribe(id)
	defer s.hub.unsubscribe(id, sub)
	job, ok := s.cfg.Store.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "", "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, codeInternal, "", "streaming unsupported")
		return
	}
	var lastID uint64
	resuming := false
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			lastID, resuming = n, true
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	sent := lastID // highest hub id delivered; dedups replay vs. live queue
	writeEvent := func(ev event) {
		if ev.id > 0 {
			if ev.id <= sent {
				return
			}
			sent = ev.id
			fmt.Fprintf(w, "id: %d\n", ev.id)
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
		flusher.Flush()
	}
	snapshot := func(j store.Job) {
		if data, err := json.Marshal(j); err == nil {
			writeEvent(event{name: "state", data: data})
		}
	}

	if resuming {
		missed, gap := s.hub.replay(id, lastID)
		if gap {
			// Continuity lost (ring outrun, or a coordinator restart reset
			// the sequence): resynchronize with the current state.
			snapshot(job)
		}
		for _, ev := range missed {
			writeEvent(ev)
		}
		if j, ok := s.cfg.Store.Job(id); ok && j.State.Terminal() {
			// The replayed tail may predate the terminal transition; an
			// unconditional snapshot makes its delivery certain (a duplicate
			// state event is an idempotent re-read for the client).
			snapshot(j)
			return
		}
	} else {
		snapshot(job)
		if job.State.Terminal() {
			return
		}
	}
	ticker := time.NewTicker(eventsPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub.ch:
			writeEvent(ev)
			if ev.name == "state" {
				if j, ok := s.cfg.Store.Job(id); ok && j.State.Terminal() {
					return
				}
			}
		case <-ticker.C:
			// The drop-on-overflow hub can lose the terminal state event for
			// a slow subscriber; the poll makes delivery inevitable.
			j, ok := s.cfg.Store.Job(id)
			if !ok {
				return
			}
			if j.State.Terminal() {
				snapshot(j)
				return
			}
		}
	}
}

// healthz is the GET /v1/healthz body. QueuedDepth and ActiveJobs give the
// scheduler's backlog at a glance; Workers (coordinator only) lists every
// live registration with its remaining lease and held shards, so a
// deployment that has lost its workers is visible before jobs start timing
// out — that condition also flips Status to "degraded".
type healthz struct {
	Status      string              `json:"status"`
	Cache       cache.Stats         `json:"cache"`
	Jobs        map[store.State]int `json:"jobs"`
	StoreRows   int                 `json:"storeRows"`
	QueuedDepth int                 `json:"queuedDepth"`
	ActiveJobs  int                 `json:"activeJobs"`
	Workers     []workerHealth      `json:"workers,omitempty"`
	Coordinator bool                `json:"coordinator,omitempty"`
}

// handleHealthz reports liveness plus the cache, store, scheduler, and —
// on a coordinator — worker-registry footprint.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	stats, err := s.cache.Stats()
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "", err.Error())
		return
	}
	h := healthz{Status: "ok", Cache: stats, Jobs: make(map[store.State]int), StoreRows: s.cfg.Store.RowCount()}
	for _, job := range s.cfg.Store.Jobs() {
		h.Jobs[job.State]++
	}
	h.QueuedDepth = h.Jobs[store.Queued]
	h.ActiveJobs = h.Jobs[store.Running]
	if s.disp != nil {
		h.Coordinator = true
		workers, dispatching := s.disp.health()
		h.Workers = workers
		if dispatching > 0 && len(workers) == 0 {
			// Jobs are waiting on workers that do not exist: alive, but not
			// making progress.
			h.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, h)
}
