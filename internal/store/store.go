// Package store is the sweep service's durable job store: every job the
// HTTP API accepts, its position in the queued → running →
// done/failed/canceled state machine, its progress counters, and — for a
// distributed job — its shard assignments. Result rows are not here: each
// completed cell lives in the content-addressed result cache, which the
// service streams results from. A RetentionPolicy prunes terminal jobs (and
// their assignments) at checkpoint time.
//
// Durability is stdlib-only — no cgo, no SQLite: an append-only write-ahead
// log of JSON records plus a periodic snapshot, both in one directory. Every
// mutation appends a WAL record first; reopening replays snapshot + WAL, so
// a crash at any point loses at most the unsynced tail (job-state
// transitions are fsynced; progress counters ride on the next state sync).
// A torn final record — the signature of a crash mid-append — is detected
// and truncated away on Open; corruption anywhere else is an error, never a
// silent skip.
//
// Snapshots are schema-versioned (SchemaVersion). Every older layout
// decodes as the current one, and Open refuses a snapshot newer than the
// code. Schema 3 and older also held result rows and per-job row-key lists;
// Open keeps such rows aside until ImportLegacyRows hands them to the
// service, which writes them into the result cache.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
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
	// has been emitted (and written to the result cache), so Completed/Cells
	// is the job's progress bar.
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
// snapshot layout changes. Schema 4 dropped result rows and per-job row-key
// lists; 3 added shard assignments, 2 the key lists, 1 the rows.
const SchemaVersion = 4

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
// Older schemas decode into it as they are: fields they lack stay empty,
// and fields since dropped (jobKeys) are ignored.
type snapshot struct {
	Schema int   `json:"schema"`
	Jobs   []Job `json:"jobs"`
	// Rows holds result rows read from a schema-3 or older store that
	// ImportLegacyRows has not yet handed over; it is empty, and omitted,
	// in any store that began at schema 4 or has been imported.
	Rows map[string]json.RawMessage `json:"rows,omitempty"`
	// Assignments maps a job ID to its distributed-dispatch shard state, so
	// a coordinator restart resumes dispatch without recomputing finished
	// shards (schema 3).
	Assignments map[string][]ShardAssignment `json:"assignments,omitempty"`
}

// record is one WAL entry. Op "job" upserts a full job record (idempotent,
// last writer wins — replay order is append order); a cancel rides on a
// plain op "job" carrying the canceled state. Op "assign" upserts a job's
// full shard-assignment list (ID + Assign) — whole-list replacement keeps
// replay trivially idempotent, and a job's list is at most a handful of
// entries. A schema-3 store also wrote op "row" (Key + Row), replayed into
// the legacy rows, and op "keys", which is ignored.
type record struct {
	Op     string            `json:"op"`
	Job    *Job              `json:"job,omitempty"`
	Key    string            `json:"key,omitempty"`
	Row    json.RawMessage   `json:"row,omitempty"`
	ID     string            `json:"id,omitempty"`
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
	// policy are pruned with their shard assignments. Change it before
	// concurrent use begins; the zero policy disables GC.
	Retention RetentionPolicy

	mu          sync.Mutex
	dir         string
	wal         *os.File
	jobs        map[string]Job
	assignments map[string][]ShardAssignment
	legacyRows  map[string]json.RawMessage // schema ≤ 3 rows awaiting ImportLegacyRows
	walRecords  int
	seq         int
	closed      bool
}

func (s *Store) walPath() string      { return filepath.Join(s.dir, "wal.log") }
func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot.json") }

// Open creates (if needed) and opens the store rooted at dir: load the
// snapshot, replay the WAL on top, and truncate a torn final record left by
// a crash mid-append.
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
		assignments:   make(map[string][]ShardAssignment),
		legacyRows:    make(map[string]json.RawMessage),
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

// loadSnapshot reads the checkpoint, if one exists.
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
	for _, j := range snap.Jobs {
		s.jobs[j.ID] = j
	}
	for k, v := range snap.Rows {
		s.legacyRows[k] = v
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
			s.legacyRows[rec.Key] = rec.Row
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
// before returning; state transitions sync, high-rate progress records ride
// on the next synced append.
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
// with their shard assignments. Caller holds s.mu. The deletions live only
// in memory — durability comes from the checkpoint the caller writes
// immediately after (a crash in between resurrects the pruned state from
// the old snapshot+WAL, and the next GC prunes it again).
func (s *Store) gc() (jobsPruned int) {
	if !s.Retention.active() {
		return 0
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
			delete(s.assignments, j.ID)
			jobsPruned++
		}
	}
	return jobsPruned
}

// GC applies the retention policy immediately and checkpoints the pruned
// state, reporting how many jobs were pruned. Deployments that never hit
// the WAL threshold (or want deterministic cleanup at startup) call this;
// steady-state pruning happens at every checkpoint anyway. rowsSwept is
// always 0: the store holds no result rows since schema 4, and the result
// keeps the signature of its one remaining reader, the benchmark.
func (s *Store) GC() (jobsPruned, rowsSwept int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, fmt.Errorf("store: closed")
	}
	jobsPruned = s.gc()
	return jobsPruned, 0, s.checkpoint()
}

// checkpoint writes the full state as a fresh snapshot (atomic tmp+rename)
// and truncates the WAL. A crash between the rename and the truncate is
// safe: replaying the old records onto the new snapshot is idempotent.
// Legacy rows not yet imported stay in the snapshot, so neither a crash nor
// an early Close loses them.
func (s *Store) checkpoint() error {
	raw, err := json.Marshal(snapshot{Schema: SchemaVersion, Jobs: s.jobList(),
		Rows: s.legacyRows, Assignments: s.assignments})
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "snapshot.tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
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

// ImportLegacyRows hands each result row a schema-3 or older store held —
// in its snapshot or as WAL "row" records — to put, keyed by the cell's
// content address, and forgets each row put accepts. If put fails, the
// rows not yet accepted stay, and every checkpoint keeps writing them until
// a later import succeeds. A store that began at schema 4 has none, and the
// call costs nothing.
func (s *Store) ImportLegacyRows(put func(key string, row json.RawMessage) error) error {
	s.mu.Lock()
	rows := maps.Clone(s.legacyRows)
	s.mu.Unlock()
	for key, row := range rows {
		if err := put(key, row); err != nil {
			return err
		}
		s.mu.Lock()
		delete(s.legacyRows, key)
		s.mu.Unlock()
	}
	return nil
}

// RowCount always returns 0: since schema 4 the store holds no result rows
// (legacy rows awaiting ImportLegacyRows are not counted). It stays for the
// benchmark, its one caller, until the benchmark's next revision.
func (s *Store) RowCount() int { return 0 }
