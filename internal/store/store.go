// Package store is the sweep service's durable job/result store: every job
// the HTTP API accepts, its position in the queued → running →
// done/failed/canceled state machine, its per-cell progress, and one result
// row per completed cell — keyed by the cell's content-addressed cache key,
// so identical cells from different jobs share one row. A RetentionPolicy
// garbage-collects at checkpoint time: terminal jobs beyond the policy are
// pruned and rows no surviving job references are swept (shared rows
// survive until the last referencing job goes).
//
// Durability is stdlib-only — no cgo, no SQLite: an append-only write-ahead
// log of JSON records plus a periodic snapshot, both in one directory. Every
// mutation appends a WAL record first; reopening replays snapshot + WAL, so
// a crash at any point loses at most the unsynced tail (job-state
// transitions are fsynced; result rows ride on the next state sync, and a
// row lost to a crash is recomputed from the result cache on resume). A torn
// final record — the signature of a crash mid-append — is detected and
// truncated away on Open; corruption anywhere else is an error, never a
// silent skip.
//
// Snapshots are schema-versioned (SchemaVersion) with a startup migration
// path: Open upgrades an older snapshot step by step through the migrations
// table before serving it, and refuses a snapshot newer than the code.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// State is a job's position in the lifecycle state machine. The legal
// transitions are Queued → Running → (Done | Failed | Canceled), plus
// Queued → Canceled for a job canceled before it starts and Running →
// Queued when a drain or crash makes an in-flight job resumable. UpdateJob
// enforces these; a same-state update (progress counters) is always legal.
type State string

// Job lifecycle states.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether st is a terminal state: the job will never run
// again, which is what makes it eligible for retention-policy pruning.
func (st State) Terminal() bool {
	return st == Done || st == Failed || st == Canceled
}

// validTransition is the state machine: from == to is always legal (counter
// updates ride on the current state), everything else is enumerated.
func validTransition(from, to State) bool {
	if from == to {
		return true
	}
	switch from {
	case Queued:
		return to == Running || to == Canceled
	case Running:
		return to == Done || to == Failed || to == Canceled || to == Queued
	default: // terminal states never leave
		return false
	}
}

// Job is one accepted sweep: the matrix spec as submitted, where it is in
// the state machine, and its progress/summary counters. The JSON encoding is
// the API's job representation as well as the WAL/snapshot one.
type Job struct {
	// ID is the store-assigned identifier, monotonically increasing and
	// zero-padded so lexicographic order is creation order.
	ID string `json:"id"`
	// Spec is the matrix spec exactly as accepted (canonical JSON).
	Spec json.RawMessage `json:"spec"`
	// State is the lifecycle position.
	State State `json:"state"`
	// Error holds the failure cause when State is Failed, and the resumable
	// note when a drain re-queued an in-flight job.
	Error string `json:"error,omitempty"`
	// Cells is the expanded matrix size; Completed counts cells whose result
	// has been emitted (and its row persisted), so Completed/Cells is the
	// job's progress bar.
	Cells     int `json:"cells"`
	Completed int `json:"completed"`
	// CacheHits/Computed/Resumed mirror the Runner's RunSummary for the
	// job's LAST execution: how many cells were served from the shared
	// result cache, how many were simulated, and how many of the hits were
	// inherited from an earlier (killed or duplicate) run. A resumed job's
	// Computed therefore counts only the cells that were actually missing.
	CacheHits int `json:"cacheHits"`
	Computed  int `json:"computed"`
	Resumed   int `json:"resumed"`
	// Created/Updated are unix timestamps (seconds).
	Created int64 `json:"created"`
	Updated int64 `json:"updated"`
}

// SchemaVersion stamps every snapshot this code writes. Bump it when the
// snapshot layout changes, and register the upgrade in migrations.
const SchemaVersion = 3

// Shard assignment states: a distributed job's shard is waiting for a
// worker, leased to one, or finished. There is no terminal failure state at
// the shard level — a failed attempt goes back to Pending with its attempt
// counter bumped, and the ATTEMPT CAP failing the whole job is the
// coordinator's policy, not the store's.
const (
	ShardPending  = "pending"
	ShardAssigned = "assigned"
	ShardDone     = "done"
)

// ShardAssignment is one shard of a distributed job's dispatch state: which
// contiguous Partition slice it is (Shard/Total), where it is in the
// pending → assigned → done machine, which worker leases it, and the
// retry/backoff bookkeeping that survives a coordinator restart (schema 3).
// Times are unix milliseconds — lease windows are sub-second in tests.
type ShardAssignment struct {
	Shard int    `json:"shard"`
	Total int    `json:"total"`
	State string `json:"state"`
	// Worker is the lease holder while State is ShardAssigned, and the
	// worker whose completion report closed the shard once ShardDone.
	Worker string `json:"worker,omitempty"`
	// Attempts counts executions so far: lease expiries and worker-reported
	// failures both bump it; the coordinator fails the job when it hits the
	// attempt cap.
	Attempts int `json:"attempts,omitempty"`
	// LeaseDeadline is when the current lease lapses (State ShardAssigned).
	LeaseDeadline int64 `json:"leaseDeadline,omitempty"`
	// NextEligible gates re-dispatch of a Pending shard: the exponential
	// backoff (with jitter) after a failed attempt.
	NextEligible int64 `json:"nextEligible,omitempty"`
	// Error is the most recent failure cause (lease expiry, worker report).
	Error string `json:"error,omitempty"`
}

// snapshot is the on-disk checkpoint: full store state at one WAL horizon.
type snapshot struct {
	Schema int                        `json:"schema"`
	Jobs   []Job                      `json:"jobs"`
	Rows   map[string]json.RawMessage `json:"rows"`
	// JobKeys maps a job ID to the content-addressed row keys its cells
	// emit, in index order — the reference edges garbage collection marks
	// from (schema 2).
	JobKeys map[string][]string `json:"jobKeys,omitempty"`
	// Assignments maps a job ID to its distributed-dispatch shard state, so
	// a coordinator restart resumes dispatch without recomputing finished
	// shards (schema 3).
	Assignments map[string][]ShardAssignment `json:"assignments,omitempty"`
}

// migrations upgrades a decoded snapshot one schema step at a time: the
// function at key v takes a valid schema-v snapshot to schema v+1. Schema 0
// is the legacy jobs-only layout from before result rows existed (no schema
// stamp, no rows map). Schema 1 predates per-job row keys; a migrated job
// has no key list, which GC treats as "references unknown" and refuses to
// sweep rows around (the service backfills keys from the stored spec at
// startup, after which sweeping resumes).
var migrations = map[int]func(*snapshot){
	0: func(s *snapshot) {
		if s.Rows == nil {
			s.Rows = map[string]json.RawMessage{}
		}
		s.Schema = 1
	},
	1: func(s *snapshot) {
		if s.JobKeys == nil {
			s.JobKeys = map[string][]string{}
		}
		s.Schema = 2
	},
	// Schema 2 predates distributed dispatch: no shard assignments. A
	// migrated job simply has none, which the coordinator treats as "never
	// dispatched" and partitions afresh when it claims the job.
	2: func(s *snapshot) {
		if s.Assignments == nil {
			s.Assignments = map[string][]ShardAssignment{}
		}
		s.Schema = 3
	},
}

// record is one WAL entry. Op "job" upserts a full job record (idempotent,
// last writer wins — replay order is append order); op "row" upserts one
// result row; op "keys" records a job's row-key list (ID + Keys fields) —
// the durable form of SetJobKeys, and the record a cancel rides on is a
// plain op "job" carrying the canceled state. Op "assign" upserts a job's
// full shard-assignment list (ID + Assign) — whole-list replacement keeps
// replay trivially idempotent, and a job's list is at most a handful of
// entries.
type record struct {
	Op     string            `json:"op"`
	Job    *Job              `json:"job,omitempty"`
	Key    string            `json:"key,omitempty"`
	Row    json.RawMessage   `json:"row,omitempty"`
	ID     string            `json:"id,omitempty"`
	Keys   []string          `json:"keys,omitempty"`
	Assign []ShardAssignment `json:"assign,omitempty"`
}

// defaultSnapshotEvery is how many WAL records accumulate before the store
// checkpoints into a fresh snapshot and truncates the log.
const defaultSnapshotEvery = 512

// RetentionPolicy bounds how much terminal-job history the store keeps.
// The zero policy retains everything (the pre-GC behavior). Non-terminal
// jobs are never pruned regardless of policy.
type RetentionPolicy struct {
	// MaxJobs, when > 0, keeps at most this many terminal jobs — the most
	// recently updated survive, older ones are pruned.
	MaxJobs int
	// MaxAge, when > 0, prunes terminal jobs whose last update is older
	// than this.
	MaxAge time.Duration
}

// active reports whether the policy prunes anything at all.
func (p RetentionPolicy) active() bool { return p.MaxJobs > 0 || p.MaxAge > 0 }

// Store is the open store. All methods are safe for concurrent use.
type Store struct {
	// SnapshotEvery is the WAL-records-per-snapshot threshold. Exported so
	// tests (and unusual deployments) can tune checkpoint frequency; change
	// it before concurrent use begins.
	SnapshotEvery int
	// Retention is applied at every checkpoint: terminal jobs beyond the
	// policy are pruned, and rows no surviving job references are swept
	// (rows shared by content address across jobs survive until the last
	// referencing job is pruned). Change it before concurrent use begins;
	// the zero policy disables GC.
	Retention RetentionPolicy

	mu          sync.Mutex
	dir         string
	wal         *os.File
	jobs        map[string]Job
	rows        map[string]json.RawMessage
	jobKeys     map[string][]string
	assignments map[string][]ShardAssignment
	walRecords  int
	seq         int
	closed      bool
}

func (s *Store) walPath() string      { return filepath.Join(s.dir, "wal.log") }
func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot.json") }

// Open creates (if needed) and opens the store rooted at dir: load the
// snapshot, migrate it to SchemaVersion if it is older, replay the WAL on
// top, and truncate a torn final record left by a crash mid-append.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		SnapshotEvery: defaultSnapshotEvery,
		dir:           dir,
		jobs:          make(map[string]Job),
		rows:          make(map[string]json.RawMessage),
		jobKeys:       make(map[string][]string),
		assignments:   make(map[string][]ShardAssignment),
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	s.wal = wal
	for id := range s.jobs {
		var n int
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
	}
	return s, nil
}

// loadSnapshot reads and migrates the checkpoint, if one exists.
func (s *Store) loadSnapshot() error {
	raw, err := os.ReadFile(s.snapshotPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("store: decode snapshot: %w", err)
	}
	if snap.Schema > SchemaVersion {
		return fmt.Errorf("store: snapshot schema %d is newer than this binary's %d; refusing to downgrade",
			snap.Schema, SchemaVersion)
	}
	for snap.Schema < SchemaVersion {
		migrate, ok := migrations[snap.Schema]
		if !ok {
			return fmt.Errorf("store: no migration from snapshot schema %d", snap.Schema)
		}
		migrate(&snap)
	}
	for _, j := range snap.Jobs {
		s.jobs[j.ID] = j
	}
	for k, v := range snap.Rows {
		s.rows[k] = v
	}
	for id, keys := range snap.JobKeys {
		s.jobKeys[id] = keys
	}
	for id, assigns := range snap.Assignments {
		s.assignments[id] = assigns
	}
	return nil
}

// replayWAL applies every record appended since the snapshot. A torn final
// record (crash mid-append) is truncated away; a malformed record anywhere
// else is corruption and surfaces as an error.
func (s *Store) replayWAL() error {
	raw, err := os.ReadFile(s.walPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read wal: %w", err)
	}
	offset := 0
	for offset < len(raw) {
		nl := bytes.IndexByte(raw[offset:], '\n')
		line := raw[offset:]
		torn := nl < 0
		if !torn {
			line = raw[offset : offset+nl]
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || torn {
			if offset+len(line) >= len(raw) || torn {
				// Last record of the file and undecodable: the torn tail of
				// a crashed append. Cut it so future appends start clean.
				if terr := os.Truncate(s.walPath(), int64(offset)); terr != nil {
					return fmt.Errorf("store: truncate torn wal tail: %w", terr)
				}
				return nil
			}
			return fmt.Errorf("store: corrupt wal record at byte %d: %v", offset, err)
		}
		s.apply(rec)
		s.walRecords++
		offset += nl + 1
	}
	return nil
}

// apply folds one WAL record into the in-memory state.
func (s *Store) apply(rec record) {
	switch rec.Op {
	case "job":
		if rec.Job != nil {
			s.jobs[rec.Job.ID] = *rec.Job
		}
	case "row":
		if rec.Key != "" {
			s.rows[rec.Key] = rec.Row
		}
	case "keys":
		if rec.ID != "" {
			s.jobKeys[rec.ID] = rec.Keys
		}
	case "assign":
		if rec.ID != "" {
			s.assignments[rec.ID] = rec.Assign
		}
	}
}

// append writes one record to the WAL (and applies it), checkpointing into a
// snapshot when the log has grown past SnapshotEvery records. sync forces
// the record — and, by fsync semantics, every record before it — to disk
// before returning; state transitions sync, high-rate row/progress records
// ride on the next synced append.
func (s *Store) append(rec record, sync bool) error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	raw = append(raw, '\n')
	if _, err := s.wal.Write(raw); err != nil {
		return fmt.Errorf("store: append wal: %w", err)
	}
	if sync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: sync wal: %w", err)
		}
	}
	s.apply(rec)
	s.walRecords++
	if s.walRecords >= s.SnapshotEvery {
		s.gc()
		if err := s.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// gc applies the retention policy: prune terminal jobs beyond the policy,
// then sweep rows no surviving job references. Caller holds s.mu. The
// deletions live only in memory — durability comes from the checkpoint the
// caller writes immediately after (a crash in between resurrects the pruned
// state from the old snapshot+WAL, and the next GC prunes it again).
//
// Sweeping is mark-and-sweep over the jobKeys reference lists, which is
// where the refcount semantics come from: a row shared by several jobs
// stays marked until the last job referencing it is pruned. If any
// surviving job has NO recorded key list (a schema-1 job the service has
// not backfilled yet), its references are unknown, so row sweeping is
// skipped entirely rather than risk deleting a row a live job still needs.
func (s *Store) gc() (jobsPruned, rowsSwept int) {
	if !s.Retention.active() {
		return 0, 0
	}
	var terminal []Job
	for _, j := range s.jobs {
		if j.State.Terminal() {
			terminal = append(terminal, j)
		}
	}
	// Oldest first: by last update, then by ID for a stable order when
	// timestamps tie (they are whole seconds).
	sort.Slice(terminal, func(i, k int) bool {
		if terminal[i].Updated != terminal[k].Updated {
			return terminal[i].Updated < terminal[k].Updated
		}
		return terminal[i].ID < terminal[k].ID
	})
	keep := len(terminal)
	if s.Retention.MaxJobs > 0 && keep > s.Retention.MaxJobs {
		keep = s.Retention.MaxJobs
	}
	cutoff := int64(0)
	if s.Retention.MaxAge > 0 {
		cutoff = time.Now().Add(-s.Retention.MaxAge).Unix()
	}
	for i, j := range terminal {
		tooMany := i < len(terminal)-keep
		tooOld := cutoff > 0 && j.Updated < cutoff
		if tooMany || tooOld {
			delete(s.jobs, j.ID)
			delete(s.jobKeys, j.ID)
			delete(s.assignments, j.ID)
			jobsPruned++
		}
	}
	if jobsPruned == 0 {
		return 0, 0
	}
	live := make(map[string]struct{})
	for id := range s.jobs {
		keys, known := s.jobKeys[id]
		if !known {
			return jobsPruned, 0 // unknown references: never sweep around them
		}
		for _, k := range keys {
			live[k] = struct{}{}
		}
	}
	for k := range s.rows {
		if _, ok := live[k]; !ok {
			delete(s.rows, k)
			rowsSwept++
		}
	}
	return jobsPruned, rowsSwept
}

// GC applies the retention policy immediately and checkpoints the pruned
// state, reporting how many jobs were pruned and rows swept. Deployments
// that never hit the WAL threshold (or want deterministic cleanup at
// startup) call this; steady-state pruning happens at every checkpoint
// anyway.
func (s *Store) GC() (jobsPruned, rowsSwept int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, fmt.Errorf("store: closed")
	}
	jobsPruned, rowsSwept = s.gc()
	if err := s.checkpoint(); err != nil {
		return jobsPruned, rowsSwept, err
	}
	return jobsPruned, rowsSwept, nil
}

// checkpoint writes the full state as a fresh snapshot (atomic tmp+rename)
// and truncates the WAL. A crash between the rename and the truncate is
// safe: replaying the old records onto the new snapshot is idempotent.
func (s *Store) checkpoint() error {
	snap := snapshot{Schema: SchemaVersion, Jobs: s.jobList(), Rows: s.rows,
		JobKeys: s.jobKeys, Assignments: s.assignments}
	tmp, err := os.CreateTemp(s.dir, "snapshot.tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	if err := writeSnapshot(w, snap); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.snapshotPath()); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("store: rewind wal: %w", err)
	}
	s.walRecords = 0
	return nil
}

// writeSnapshot writes the bytes json.Marshal(snap) encodes, one row at a
// time. Rows are most of a snapshot; marshaling it whole held it in memory
// twice, once in the encoder's pooled buffer, which keeps that size after
// the checkpoint, so the process's peak memory grew with the row count.
// Write errors stick in w, and the caller's Flush reports them.
func writeSnapshot(w *bufio.Writer, snap snapshot) error {
	field := func(prefix string, v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("store: encode snapshot: %w", err)
		}
		w.WriteString(prefix)
		w.Write(raw)
		return nil
	}
	if err := field(`{"schema":`, snap.Schema); err != nil {
		return err
	}
	if err := field(`,"jobs":`, snap.Jobs); err != nil {
		return err
	}
	if snap.Rows == nil {
		w.WriteString(`,"rows":null`)
	}
	keys := make([]string, 0, len(snap.Rows))
	for k := range snap.Rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if snap.Rows != nil {
		w.WriteString(`,"rows":{`)
	}
	for i, k := range keys {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if err := field(sep, k); err != nil {
			return err
		}
		if err := field(":", snap.Rows[k]); err != nil {
			return err
		}
	}
	if snap.Rows != nil {
		w.WriteString("}")
	}
	if len(snap.JobKeys) > 0 {
		if err := field(`,"jobKeys":`, snap.JobKeys); err != nil {
			return err
		}
	}
	if len(snap.Assignments) > 0 {
		if err := field(`,"assignments":`, snap.Assignments); err != nil {
			return err
		}
	}
	w.WriteString("}")
	return nil
}

// jobList returns the jobs sorted by ID (creation order).
func (s *Store) jobList() []Job {
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Close checkpoints the state and closes the WAL. Further mutations error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.gc()
	err := s.checkpoint()
	s.closed = true
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// CreateJob durably records a new job in state Queued and assigns its ID.
func (s *Store) CreateJob(spec json.RawMessage, cells int) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	now := time.Now().Unix()
	job := Job{
		ID:      fmt.Sprintf("j%06d", s.seq),
		Spec:    spec,
		State:   Queued,
		Cells:   cells,
		Created: now,
		Updated: now,
	}
	if err := s.append(record{Op: "job", Job: &job}, true); err != nil {
		s.seq--
		return Job{}, err
	}
	return job, nil
}

// UpdateJob applies mutate to the job and durably records the result when
// sync is true (state transitions); progress counters pass sync false and
// are flushed by the next synced append. A mutate that attempts an illegal
// state transition (see validTransition) is rejected without writing
// anything — terminal states, including Canceled, are final.
func (s *Store) UpdateJob(id string, sync bool, mutate func(*Job)) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("store: no job %q", id)
	}
	from := job.State
	mutate(&job)
	job.ID = id // the identity is not the caller's to change
	if !validTransition(from, job.State) {
		return Job{}, fmt.Errorf("store: job %s: illegal transition %s → %s", id, from, job.State)
	}
	job.Updated = time.Now().Unix()
	if err := s.append(record{Op: "job", Job: &job}, sync); err != nil {
		return Job{}, err
	}
	return job, nil
}

// SetJobKeys durably records the content-addressed row keys job id's cells
// emit, in index order. The service writes this once at submission; GC
// marks live rows from these lists, so a job with recorded keys keeps its
// rows alive (shared or not) until the job itself is pruned.
func (s *Store) SetJobKeys(id string, keys []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return fmt.Errorf("store: no job %q", id)
	}
	return s.append(record{Op: "keys", ID: id, Keys: keys}, false)
}

// JobKeys returns the recorded row-key list for job id, and whether one was
// ever recorded (schema-1 jobs have none until backfilled).
func (s *Store) JobKeys(id string) ([]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, ok := s.jobKeys[id]
	return keys, ok
}

// SetAssignments durably replaces job id's shard-assignment list. sync
// forces the record to disk before returning: the coordinator syncs when a
// shard reaches ShardDone (losing done-ness to a crash would recompute the
// shard) and lets lease renewals and grants ride the next synced append —
// an assignment lost to a crash is merely re-dispatched.
func (s *Store) SetAssignments(id string, assigns []ShardAssignment, sync bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return fmt.Errorf("store: no job %q", id)
	}
	cp := make([]ShardAssignment, len(assigns))
	copy(cp, assigns)
	return s.append(record{Op: "assign", ID: id, Assign: cp}, sync)
}

// Assignments returns a copy of job id's shard-assignment list, and whether
// the job was ever dispatched (a job from before schema 3, or one always run
// locally, has none).
func (s *Store) Assignments(id string) ([]ShardAssignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	assigns, ok := s.assignments[id]
	cp := make([]ShardAssignment, len(assigns))
	copy(cp, assigns)
	return cp, ok
}

// Job returns the job by ID.
func (s *Store) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// Jobs returns every job, sorted by ID (creation order).
func (s *Store) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobList()
}

// PutRow upserts one result row under its content-addressed cache key. Rows
// are deduplicated by key across jobs: two jobs whose matrices share a cell
// share its row. Not synced — a row lost to a crash is recomputed from the
// result cache when the job resumes.
func (s *Store) PutRow(key string, row []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty row key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(record{Op: "row", Key: key, Row: json.RawMessage(row)}, false)
}

// Row returns the result row stored under key.
func (s *Store) Row(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row, ok := s.rows[key]
	return row, ok
}

// RowCount reports how many distinct result rows the store holds.
func (s *Store) RowCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rows)
}
