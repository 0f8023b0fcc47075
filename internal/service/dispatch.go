package service

// This file is the coordinator half of distributed sweeps: a registry of
// worker sweepds holding time-bounded leases, and a per-job dispatch state
// machine that partitions the matrix into shard assignments (the same
// experiment.Partition ranges the CLI's -shard flag uses), hands them to
// workers over heartbeats, and re-queues a shard — with exponential backoff
// plus jitter — whenever the worker holding it goes silent past its lease.
//
// Dispatch is pull-based: a worker's heartbeat both renews its lease and
// returns the worker's complete current assignment list (at most one shard
// at a time), so a lost response, a canceled job, or a withdrawn shard all
// resolve the same way — the next heartbeat's list is the truth and the
// worker reconciles against it. The coordinator never calls into workers,
// which keeps them free to sit behind NAT or come and go at will. An idle
// worker's heartbeat is a long poll: the coordinator holds it open until
// there is a shard to grant (see awaitGrant), so new work reaches an idle
// fleet as soon as it is admitted instead of on the next heartbeat tick.
//
// Byte-identity survives distribution for the same reason it survives
// sharded CLI runs: every cell's randomness descends from its per-scenario
// derived seed, so any worker computes the same row bytes, and uploaded rows
// land in the coordinator's result cache under the same cell keys the solo
// path writes. Duplicate work — a zombie worker finishing a shard that was
// re-assigned — lands as an idempotent overwrite with identical bytes.
//
// Assignments, attempt counts, and lease deadlines persist in the store
// (schema v3), so a coordinator restart resumes dispatch: done shards stay
// done, assigned shards return to pending (their workers must re-register
// anyway), and nothing finished is recomputed.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"iotmpc/internal/cache"
	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// Dispatch defaults: a worker missing leaseTTLDefault of heartbeats loses
// its shards; a shard failing repeatedly waits backoffBase·2^(attempts-1)
// (capped at backoffMax, half-jittered) before re-dispatch; and
// maxShardAttemptsDefault grants without a completion fail the job. A held
// idle heartbeat is answered after at most a third of the lease TTL — one
// default heartbeat interval, so a worker on the default cadence finds its
// next tick already due and keeps a poll open — and never after more than
// holdMax, which stays well under the worker client's 30s timeout.
const (
	leaseTTLDefault         = 15 * time.Second
	backoffBaseDefault      = time.Second
	backoffMaxDefault       = 30 * time.Second
	maxShardAttemptsDefault = 5
	holdMax                 = 20 * time.Second
)

// ShardError is the typed failure a job records when one shard exhausts its
// attempt budget: it names the shard so an operator knows which slice of the
// matrix kept dying (a poisoned cell, or simply not enough live workers).
type ShardError struct {
	Job      string
	Shard    int
	Total    int
	Attempts int
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d/%d of job %s failed after %d attempts (worker leases expired)",
		e.Shard, e.Total, e.Job, e.Attempts)
}

// workerReg is the POST /v1/workers body.
type workerReg struct {
	Name string `json:"name"`
}

// workerInfo is the registration response: the assigned worker ID and the
// lease the worker must keep renewed (heartbeat comfortably faster than
// this, e.g. every leaseMillis/3).
type workerInfo struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	LeaseMillis int64  `json:"leaseMillis"`
}

// shardGrant is one entry of a heartbeat response: a shard the worker
// currently holds, with everything needed to execute it. Attempt
// disambiguates re-grants of the same shard — a worker treats a changed
// attempt as a fresh execution.
type shardGrant struct {
	Job     string          `json:"job"`
	Shard   int             `json:"shard"`
	Total   int             `json:"total"`
	Attempt int             `json:"attempt"`
	Spec    json.RawMessage `json:"spec"`
}

// heartbeatRequest is the optional heartbeat body: the grant keys
// (job/shard/attempt) of the shards the worker is executing. An empty list
// says the worker is idle, which lets the coordinator hold the heartbeat
// until it has work; an absent list (no body, as older workers and
// hand-driven heartbeats send) is answered at once.
type heartbeatRequest struct {
	Running []string `json:"running"`
}

// heartbeatResponse carries the worker's complete current assignment list;
// a shard the worker is executing that is absent here has been withdrawn.
type heartbeatResponse struct {
	Grants []shardGrant `json:"grants"`
}

// rowsResponse acknowledges a row upload. Stale marks uploads for jobs no
// longer dispatching — accepted and discarded, because a zombie worker's
// rows are identical bytes to whatever already landed.
type rowsResponse struct {
	Accepted int  `json:"accepted"`
	Stale    bool `json:"stale,omitempty"`
}

// shardDoneRequest is the completion report: which attempt finished and the
// worker's run summary for aggregation.
type shardDoneRequest struct {
	Attempt int                   `json:"attempt"`
	Summary experiment.RunSummary `json:"summary"`
}

// shardDoneResponse acknowledges a completion report.
type shardDoneResponse struct {
	Done  bool `json:"done"`
	Stale bool `json:"stale,omitempty"`
}

// workerState is one live registration.
type workerState struct {
	id       string
	name     string
	deadline time.Time // lease: renewed by every heartbeat
}

// dispatchJob is one job's distributed execution state. The assignment list
// is authoritative here and mirrored to the store on every transition;
// rowsPresent tracks which matrix cells have landed so completion reports
// can be verified and progress counters kept truthful.
type dispatchJob struct {
	id    string
	spec  json.RawMessage
	keys  []string // per-cell cache keys, index order
	cells int

	assigns     []store.ShardAssignment // nil until the first worker heartbeat fixes the shard total
	rowsPresent []bool
	completed   int
	summary     experiment.RunSummary
	restored    int // shards already done at admit (coordinator restart)

	done     chan struct{} // closed exactly once, with err set first
	err      error         // nil: all shards done; *ShardError: attempt budget exhausted
	finished bool
}

// dispatchStore is the part of *store.Store the dispatcher reads and
// writes; tests substitute one whose assignment writes fail.
type dispatchStore interface {
	Assignments(id string) ([]store.ShardAssignment, bool)
	SetAssignments(id string, assigns []store.ShardAssignment, sync bool) error
}

// dispatcher is the coordinator: worker registry plus active dispatch jobs.
// All fields behind mu; handlers and the lease scan share it.
type dispatcher struct {
	store       dispatchStore
	cache       *cache.Store // where uploaded rows land: the server's result cache
	leaseTTL    time.Duration
	backoffBase time.Duration
	backoffMax  time.Duration
	maxAttempts int

	mu      sync.Mutex
	seq     int
	workers map[string]*workerState
	jobs    map[string]*dispatchJob
	changed chan struct{} // closed and replaced when pending work appears
}

func newDispatcher(cfg Config, results *cache.Store) *dispatcher {
	d := &dispatcher{
		store:       cfg.Store,
		cache:       results,
		leaseTTL:    cfg.LeaseTTL,
		backoffBase: cfg.ShardBackoffBase,
		backoffMax:  cfg.ShardBackoffMax,
		maxAttempts: cfg.MaxShardAttempts,
		workers:     make(map[string]*workerState),
		jobs:        make(map[string]*dispatchJob),
		changed:     make(chan struct{}),
	}
	if d.leaseTTL <= 0 {
		d.leaseTTL = leaseTTLDefault
	}
	if d.backoffBase <= 0 {
		d.backoffBase = backoffBaseDefault
	}
	if d.backoffMax <= 0 {
		d.backoffMax = backoffMaxDefault
	}
	if d.maxAttempts <= 0 {
		d.maxAttempts = maxShardAttemptsDefault
	}
	return d
}

// backoff is the re-dispatch delay after `attempts` failed grants of one
// shard: exponential from the base, capped, then half-jittered (d/2 + a
// uniform draw of d/2) so a herd of shards freed by one dead worker does
// not re-dispatch in lockstep.
func (d *dispatcher) backoff(attempts int) time.Duration {
	delay := d.backoffBase
	for i := 1; i < attempts && delay < d.backoffMax; i++ {
		delay *= 2
	}
	if delay > d.backoffMax {
		delay = d.backoffMax
	}
	return delay/2 + rand.N(delay/2+1)
}

// admit registers a job for distributed execution, resuming persisted
// assignments if the store has them (coordinator restart): done shards stay
// done — their rows are already in the cache — and shards that were assigned
// when the previous coordinator died return to pending with attempts intact
// (their workers' registrations died with the process, so the leases are
// void, but the restart itself is not the shard's fault: no backoff).
func (d *dispatcher) admit(id string, spec json.RawMessage, keys []string) (*dispatchJob, error) {
	dj := &dispatchJob{
		id:          id,
		spec:        spec,
		keys:        keys,
		cells:       len(keys),
		rowsPresent: make([]bool, len(keys)),
		done:        make(chan struct{}),
	}
	for i, key := range keys {
		_, ok, err := d.cache.GetRaw(key)
		if err != nil {
			return nil, err
		}
		if ok {
			dj.rowsPresent[i] = true
			dj.completed++
		}
	}
	if persisted, ok := d.store.Assignments(id); ok {
		changed := false
		for i := range persisted {
			a := &persisted[i]
			switch a.State {
			case store.ShardDone:
				lo, hi := experiment.ShardSpec{Shard: a.Shard, Total: a.Total}.Range(dj.cells)
				dj.restored++
				dj.summary.CacheHits += hi - lo
				dj.summary.Resumed += hi - lo
			case store.ShardAssigned:
				a.State = store.ShardPending
				a.Worker = ""
				a.LeaseDeadline = 0
				a.NextEligible = 0
				changed = true
			}
		}
		dj.assigns = persisted
		if changed {
			if err := d.store.SetAssignments(id, persisted, true); err != nil {
				return nil, err
			}
		}
	}
	d.mu.Lock()
	d.jobs[id] = dj
	terminal := dj.assigns != nil && dj.allDone()
	if terminal {
		dj.finish(nil)
	} else {
		d.broadcast()
	}
	d.mu.Unlock()
	return dj, nil
}

// broadcast wakes every held heartbeat to re-evaluate its grant list: new
// pending shards exist. Caller holds d.mu.
func (d *dispatcher) broadcast() {
	close(d.changed)
	d.changed = make(chan struct{})
}

// remove forgets a job once its run loop has observed the terminal state.
func (d *dispatcher) remove(id string) {
	d.mu.Lock()
	delete(d.jobs, id)
	d.mu.Unlock()
}

// withdraw pulls a job out of dispatch before completion (cancel or drain):
// assigned shards return to pending immediately — the workers learn from
// their next heartbeat's empty grant list — and the assignment state is
// persisted so a resume re-dispatches exactly the unfinished shards. The
// error is a store failure.
func (d *dispatcher) withdraw(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	dj := d.jobs[id]
	if dj == nil {
		return nil
	}
	delete(d.jobs, id)
	changed := false
	for i := range dj.assigns {
		a := &dj.assigns[i]
		if a.State == store.ShardAssigned {
			a.State = store.ShardPending
			a.Worker = ""
			a.LeaseDeadline = 0
			changed = true
		}
	}
	if changed {
		return d.store.SetAssignments(id, dj.assigns, true)
	}
	return nil
}

// allDone reports whether every shard is done. Caller holds d.mu and the
// assignment list is initialized.
func (dj *dispatchJob) allDone() bool {
	for _, a := range dj.assigns {
		if a.State != store.ShardDone {
			return false
		}
	}
	return true
}

// finish records the terminal verdict and wakes the job's run loop. Caller
// holds d.mu; idempotent so a zombie completion racing a failure is safe.
func (dj *dispatchJob) finish(err error) {
	if dj.finished {
		return
	}
	dj.finished = true
	dj.err = err
	close(dj.done)
}

// register admits a worker and returns its identity plus the lease TTL it
// must keep renewed.
func (d *dispatcher) register(name string) workerInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	w := &workerState{
		id:       fmt.Sprintf("w%06d", d.seq),
		name:     name,
		deadline: time.Now().Add(d.leaseTTL),
	}
	d.workers[w.id] = w
	return workerInfo{ID: w.id, Name: w.name, LeaseMillis: d.leaseTTL.Milliseconds()}
}

// heartbeat renews a worker's lease and returns its complete grant list,
// assigning one new shard if the worker holds none. ok=false means the
// worker is unknown — expired, or registered with a predecessor coordinator
// — and must re-register.
func (d *dispatcher) heartbeat(workerID string) (grants []shardGrant, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.heartbeatLocked(workerID)
}

// heartbeatLocked is heartbeat with d.mu held.
func (d *dispatcher) heartbeatLocked(workerID string) (grants []shardGrant, ok bool, err error) {
	w := d.workers[workerID]
	if w == nil {
		return nil, false, nil
	}
	now := time.Now()
	w.deadline = now.Add(d.leaseTTL)
	grants = []shardGrant{}
	for _, id := range d.jobIDs() {
		dj := d.jobs[id]
		for i := range dj.assigns {
			a := &dj.assigns[i]
			if a.State == store.ShardAssigned && a.Worker == workerID {
				grants = append(grants, shardGrant{
					Job: id, Shard: a.Shard, Total: a.Total, Attempt: a.Attempts, Spec: dj.spec,
				})
			}
		}
	}
	if len(grants) > 0 {
		return grants, true, nil
	}
	// The worker is idle: hand it the oldest job's first eligible pending
	// shard. One shard per worker at a time keeps granularity for re-queue
	// — a dead worker forfeits one shard, not a batch.
	nowMs := now.UnixMilli()
	for _, id := range d.jobIDs() {
		dj := d.jobs[id]
		if dj.finished {
			continue
		}
		if dj.assigns == nil {
			d.initAssignments(dj)
		}
		for i := range dj.assigns {
			a := &dj.assigns[i]
			if a.State != store.ShardPending || a.NextEligible > nowMs {
				continue
			}
			a.State = store.ShardAssigned
			a.Worker = workerID
			a.Attempts++
			a.LeaseDeadline = now.Add(d.leaseTTL).UnixMilli()
			a.Error = ""
			if err := d.store.SetAssignments(id, dj.assigns, false); err != nil {
				return nil, true, err
			}
			grants = append(grants, shardGrant{
				Job: id, Shard: a.Shard, Total: a.Total, Attempt: a.Attempts, Spec: dj.spec,
			})
			return grants, true, nil
		}
	}
	return grants, true, nil
}

// awaitGrant is heartbeat for a worker that reported itself idle: while
// the worker holds no grant and nothing is grantable, the answer waits. It
// is re-evaluated whenever new pending work appears (admit, or a re-queue
// in scan) and when the earliest backed-off shard becomes eligible, and it
// returns the current list — renewing the lease again — after the hold
// bound at the latest, so lease renewal never depends on the hold. A client
// that goes away (ctx) or a coordinator shutting down (stop) ends the hold
// with no grant: work handed out then would only sit until its lease
// expired.
func (d *dispatcher) awaitGrant(ctx context.Context, stop <-chan struct{}, workerID string) (grants []shardGrant, ok bool, err error) {
	bound := time.NewTimer(d.holdBound())
	defer bound.Stop()
	eligible := time.NewTimer(time.Hour)
	eligible.Stop()
	defer eligible.Stop()
	for {
		d.mu.Lock()
		grants, ok, err = d.heartbeatLocked(workerID)
		if !ok || err != nil || len(grants) > 0 {
			d.mu.Unlock()
			return grants, ok, err
		}
		changed := d.changed
		next := d.nextEligible()
		d.mu.Unlock()

		var eligibleC <-chan time.Time
		if next > 0 {
			eligible.Reset(time.Until(time.UnixMilli(next)))
			eligibleC = eligible.C
		}
		select {
		case <-changed:
		case <-eligibleC:
		case <-bound.C:
			return d.heartbeat(workerID)
		case <-ctx.Done():
			return nil, true, nil
		case <-stop:
			return []shardGrant{}, true, nil
		}
	}
}

// holdBound is the longest a held heartbeat goes unanswered.
func (d *dispatcher) holdBound() time.Duration {
	return min(d.leaseTTL/3, holdMax)
}

// nextEligible returns the earliest NextEligible (Unix ms) of any pending,
// backed-off shard of an unfinished job, or 0 if none waits. Caller holds
// d.mu, just after a heartbeat found nothing grantable — so every pending
// shard it sees lies in the future.
func (d *dispatcher) nextEligible() int64 {
	var next int64
	for _, dj := range d.jobs {
		if dj.finished {
			continue
		}
		for _, a := range dj.assigns {
			if a.State == store.ShardPending && a.NextEligible > 0 && (next == 0 || a.NextEligible < next) {
				next = a.NextEligible
			}
		}
	}
	return next
}

// jobIDs returns the active dispatch jobs oldest-first (IDs are sequential),
// so grant order matches the scheduler's admission order. Caller holds d.mu.
func (d *dispatcher) jobIDs() []string {
	ids := make([]string, 0, len(d.jobs))
	for id := range d.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// initAssignments fixes the job's shard total at first grant: one shard per
// live worker, never more shards than cells. Caller holds d.mu and
// guarantees at least one live worker (the heartbeater).
func (d *dispatcher) initAssignments(dj *dispatchJob) {
	total := len(d.workers)
	if total > dj.cells {
		total = dj.cells
	}
	if total < 1 {
		total = 1
	}
	assigns := make([]store.ShardAssignment, total)
	for i := range assigns {
		assigns[i] = store.ShardAssignment{Shard: i, Total: total, State: store.ShardPending}
	}
	dj.assigns = assigns
}

// rows ingests a batch of completed cell rows (JSONL, one ScenarioResult
// per line, exactly the bytes a solo run's cache entry holds). Each row is
// written into the coordinator's result cache under its cell key BEFORE it
// is marked present, so a progress count or a completion check never runs
// ahead of what the results stream can serve; shardDone makes the rows
// durable. A duplicate — two workers
// racing the same shard — overwrites identical bytes, so no freshness
// check is needed or wanted. stale=true means the job is no longer
// dispatching here.
func (d *dispatcher) rows(jobID string, lines [][]byte) (accepted int, stale bool, err error) {
	type indexed struct {
		Scenario struct {
			Index int `json:"index"`
		} `json:"scenario"`
	}
	d.mu.Lock()
	dj := d.jobs[jobID]
	d.mu.Unlock()
	if dj == nil {
		return 0, true, nil
	}
	for _, line := range lines {
		var row indexed
		if err := json.Unmarshal(line, &row); err != nil {
			return accepted, false, fmt.Errorf("row %d: %w", accepted, err)
		}
		i := row.Scenario.Index
		if i < 0 || i >= dj.cells {
			return accepted, false, fmt.Errorf("row index %d outside matrix of %d cells", i, dj.cells)
		}
		if err := d.cache.Put(dj.keys[i], json.RawMessage(line)); err != nil {
			return accepted, false, err
		}
		accepted++
		d.mu.Lock()
		if !dj.rowsPresent[i] {
			dj.rowsPresent[i] = true
			dj.completed++
		}
		d.mu.Unlock()
	}
	return accepted, false, nil
}

// progress reads the job's merged completion counters for the progress
// event the rows handler publishes.
func (d *dispatcher) progress(jobID string) (completed, cells int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if dj := d.jobs[jobID]; dj != nil {
		return dj.completed, dj.cells
	}
	return 0, 0
}

// shardDone handles a completion report. It is deliberately lax about WHO
// reports: a zombie worker whose lease expired finishing a shard that was
// since re-granted still completes it — the rows are identical bytes either
// way, and first-report-wins aggregation keeps the summary consistent. The
// one hard check is that every row of the shard's range actually landed;
// a report with rows missing (lost uploads) is refused so the worker
// re-flushes and retries.
func (d *dispatcher) shardDone(jobID string, shard int, sum experiment.RunSummary) (resp shardDoneResponse, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dj := d.jobs[jobID]
	if dj == nil || dj.finished {
		return shardDoneResponse{Stale: true}, nil
	}
	if dj.assigns == nil || shard < 0 || shard >= len(dj.assigns) {
		return resp, fmt.Errorf("no shard %d in job %s", shard, jobID)
	}
	a := &dj.assigns[shard]
	if a.State == store.ShardDone {
		return shardDoneResponse{Done: true}, nil // duplicate report: no-op
	}
	lo, hi := experiment.ShardSpec{Shard: a.Shard, Total: a.Total}.Range(dj.cells)
	for i := lo; i < hi; i++ {
		if !dj.rowsPresent[i] {
			return resp, fmt.Errorf("shard %d reported done but row %d has not landed", shard, i)
		}
	}
	// Rows land unsynced, so each reaches the results stream without
	// waiting on the disk; the shard is done only once they are durable.
	for _, key := range dj.keys[lo:hi] {
		if err := d.cache.Sync(key); err != nil {
			return resp, err
		}
	}
	a.State = store.ShardDone
	a.LeaseDeadline = 0
	a.Error = ""
	if err := d.store.SetAssignments(jobID, dj.assigns, true); err != nil {
		return resp, err
	}
	dj.summary.CacheHits += sum.CacheHits
	dj.summary.Computed += sum.Computed
	dj.summary.Resumed += sum.Resumed
	dj.summary.CacheWriteErrors += sum.CacheWriteErrors
	if dj.allDone() {
		dj.summary.Cells = dj.cells
		dj.finish(nil)
	}
	return shardDoneResponse{Done: true}, nil
}

// scan is the lease-expiry pass, run on a timer while the coordinator is
// up: a worker past its deadline is dropped and every shard it held is
// re-queued with backoff — or, at the attempt cap, fails its whole job with
// a ShardError naming the shard. The error is a store failure.
func (d *dispatcher) scan() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	requeued := false
	for id, w := range d.workers {
		if w.deadline.After(now) {
			continue
		}
		delete(d.workers, id)
		for jobID, dj := range d.jobs {
			changed := false
			for i := range dj.assigns {
				a := &dj.assigns[i]
				if a.State != store.ShardAssigned || a.Worker != id {
					continue
				}
				changed = true
				a.Worker = ""
				a.LeaseDeadline = 0
				if a.Attempts >= d.maxAttempts {
					a.State = store.ShardPending
					a.Error = fmt.Sprintf("attempt %d lease expired (worker %s); attempt budget exhausted", a.Attempts, id)
					dj.finish(&ShardError{Job: jobID, Shard: a.Shard, Total: a.Total, Attempts: a.Attempts})
					continue
				}
				a.State = store.ShardPending
				delay := d.backoff(a.Attempts)
				a.NextEligible = now.Add(delay).UnixMilli()
				a.Error = fmt.Sprintf("attempt %d lease expired (worker %s); next eligible in %s", a.Attempts, id, delay.Round(time.Millisecond))
				requeued = true
			}
			if changed {
				if err := d.store.SetAssignments(jobID, dj.assigns, false); err != nil {
					return err
				}
			}
		}
	}
	if requeued {
		d.broadcast()
	}
	return nil
}

// workerHealth is one registered worker's entry in the healthz body.
type workerHealth struct {
	ID                   string   `json:"id"`
	Name                 string   `json:"name,omitempty"`
	LeaseRemainingMillis int64    `json:"leaseRemainingMillis"`
	Shards               []string `json:"shards,omitempty"` // "job/shard", e.g. "j000001/2"
}

// health snapshots the registry for /v1/healthz: every live worker, its
// remaining lease, and the shards it holds.
func (d *dispatcher) health() (workers []workerHealth, dispatching int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	workers = []workerHealth{}
	for _, id := range workerIDs(d.workers) {
		w := d.workers[id]
		wh := workerHealth{ID: w.id, Name: w.name, LeaseRemainingMillis: w.deadline.Sub(now).Milliseconds()}
		for _, jobID := range d.jobIDs() {
			for _, a := range d.jobs[jobID].assigns {
				if a.State == store.ShardAssigned && a.Worker == w.id {
					wh.Shards = append(wh.Shards, jobID+"/"+strconv.Itoa(a.Shard))
				}
			}
		}
		workers = append(workers, wh)
	}
	return workers, len(d.jobs)
}

func workerIDs(m map[string]*workerState) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// --- HTTP surface -----------------------------------------------------------

// requireCoordinator gates the /v1/workers surface: on a plain (local
// execution) sweepd the endpoints exist but answer 409, which tells a
// misdirected worker immediately that it joined the wrong address.
func (s *Server) requireCoordinator(w http.ResponseWriter) bool {
	if s.disp == nil {
		httpError(w, http.StatusConflict, codeConflict, "",
			"this sweepd is not a coordinator (start it with -coordinator)")
		return false
	}
	return true
}

// handleWorkerRegister is POST /v1/workers: admit a worker, return its ID
// and lease TTL.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var reg workerReg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&reg); err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "", "decode registration: "+err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, s.disp.register(reg.Name))
}

// handleWorkerHeartbeat is POST /v1/workers/{id}/heartbeat: renew the lease,
// return the worker's complete grant list. A worker whose body reports an
// empty running set is idle, and its answer is held until there is work
// (dispatcher.awaitGrant). 410 means the registration is gone — the worker
// re-registers and starts fresh.
func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var req heartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&req); err != nil && err != io.EOF {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "", "decode heartbeat: "+err.Error())
		return
	}
	var grants []shardGrant
	var ok bool
	var err error
	if req.Running != nil && len(req.Running) == 0 {
		grants, ok, err = s.disp.awaitGrant(r.Context(), s.ctx.Done(), r.PathValue("id"))
	} else {
		grants, ok, err = s.disp.heartbeat(r.PathValue("id"))
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "", err.Error())
		return
	}
	if !ok {
		httpError(w, http.StatusGone, codeNotFound, "", "unknown worker lease (expired or lost to a restart); re-register")
		return
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{Grants: grants})
}

// handleShardRows is POST /v1/workers/{id}/shards/{job}/{shard}/rows: ingest
// a JSONL batch of completed cell rows. Uploads are accepted regardless of
// lease state — see dispatcher.rows — and publish merged progress to the
// job's SSE subscribers.
func (s *Server) handleShardRows(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	jobID := r.PathValue("job")
	var lines [][]byte
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxSpecBytes)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			lines = append(lines, append([]byte(nil), line...))
		}
	}
	if err := sc.Err(); err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "", "read rows: "+err.Error())
		return
	}
	accepted, stale, err := s.disp.rows(jobID, lines)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "", err.Error())
		return
	}
	if !stale {
		completed, cells := s.disp.progress(jobID)
		if data, err := json.Marshal(progressEvent{JobID: jobID, Index: -1, Completed: completed, Cells: cells}); err == nil {
			s.hub.publish(jobID, event{name: "progress", data: data})
		}
		s.cfg.Store.UpdateJob(jobID, false, func(j *store.Job) { j.Completed = completed })
	}
	writeJSON(w, http.StatusOK, rowsResponse{Accepted: accepted, Stale: stale})
}

// handleShardDone is POST /v1/workers/{id}/shards/{job}/{shard}/done: mark
// the shard complete once all its rows have landed. 409 with "not landed"
// tells the worker to re-flush its rows and retry.
func (s *Server) handleShardDone(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "shard", "shard index: "+err.Error())
		return
	}
	var req shardDoneRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "", "decode report: "+err.Error())
		return
	}
	resp, err := s.disp.shardDone(r.PathValue("job"), shard, req.Summary)
	if err != nil {
		httpError(w, http.StatusConflict, codeConflict, "", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// runJobDispatch executes one claimed job by distributing its shards to
// workers, standing in for the local-Runner path of runJob. It blocks until
// the dispatch state machine reaches a verdict or the job's context is
// canceled; as in runJob, the returned error is a STORE failure.
func (s *Server) runJobDispatch(id string, aj *activeJob, job store.Job, m experiment.Matrix) error {
	scenarios, err := m.Scenarios()
	if err != nil {
		s.unclaim(id)
		return s.finishJob(id, store.Failed, err.Error(), nil)
	}
	keys, err := experiment.ScenarioKeys(scenarios)
	if err != nil {
		s.unclaim(id)
		return s.finishJob(id, store.Failed, err.Error(), nil)
	}
	dj, err := s.disp.admit(id, job.Spec, keys)
	if err != nil {
		s.unclaim(id)
		return err
	}
	select {
	case <-aj.ctx.Done():
		if err := s.disp.withdraw(id); err != nil {
			s.unclaim(id)
			return err
		}
		sum, _ := s.disp.verdict(dj)
		if s.unclaim(id) {
			return s.finishJob(id, store.Canceled,
				fmt.Sprintf("canceled by client after %d/%d cells", sum.Completed, dj.cells), nil)
		}
		return s.finishJob(id, store.Queued,
			fmt.Sprintf("resumable: interrupted by shutdown after %d/%d cells", sum.Completed, dj.cells), nil)
	case <-dj.done:
		s.disp.remove(id)
		s.unclaim(id)
		sum, verdictErr := s.disp.verdict(dj)
		if verdictErr != nil {
			return s.finishJob(id, store.Failed, verdictErr.Error(), nil)
		}
		summary := sum.Summary
		summary.Cells = dj.cells
		return s.finishRun(id, summary)
	}
}

// dispatchVerdict is a locked snapshot of a dispatch job's outcome.
type dispatchVerdict struct {
	Summary   experiment.RunSummary
	Completed int
}

// verdict reads the job's aggregated summary and terminal error under the
// dispatcher lock — in-flight row uploads from zombie workers may still be
// mutating the counters when the run loop wakes.
func (d *dispatcher) verdict(dj *dispatchJob) (dispatchVerdict, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return dispatchVerdict{Summary: dj.summary, Completed: dj.completed}, dj.err
}

// scanLoop drives lease expiry while the coordinator runs. A store write
// failure stops the scheduler, as in runLoop: re-queues that cannot be
// persisted would leave the store lying about who holds which shard.
func (s *Server) scanLoop(every time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			if err := s.disp.scan(); err != nil {
				s.cancel()
				return
			}
		}
	}
}
