package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

func TestCreateAndGetJob(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	job, err := s.CreateJob(json.RawMessage(`{"nodeCounts":[8]}`), 4)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if job.ID != "j000001" || job.State != Queued || job.Cells != 4 {
		t.Fatalf("unexpected job %+v", job)
	}
	got, ok := s.Job(job.ID)
	if !ok || got.State != Queued {
		t.Fatalf("lookup: ok=%v job=%+v", ok, got)
	}
	if _, ok := s.Job("j999999"); ok {
		t.Error("phantom job found")
	}
}

func TestUpdateJobAndStateMachine(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	job, _ := s.CreateJob(json.RawMessage(`{}`), 2)
	upd, err := s.UpdateJob(job.ID, true, func(j *Job) {
		j.State = Running
		j.ID = "hijack" // must be ignored
	})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if upd.ID != job.ID || upd.State != Running {
		t.Fatalf("update result %+v", upd)
	}
	if _, err := s.UpdateJob("j424242", true, func(*Job) {}); err == nil {
		t.Error("update of missing job accepted")
	}
}

// TestStateMachineRejectsIllegalTransitions: terminal states are final and
// a queued job cannot jump straight to done.
func TestStateMachineRejectsIllegalTransitions(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	set := func(id string, st State) error {
		_, err := s.UpdateJob(id, true, func(j *Job) { j.State = st })
		return err
	}
	job, _ := s.CreateJob(json.RawMessage(`{}`), 1)
	if err := set(job.ID, Done); err == nil {
		t.Error("queued → done accepted")
	}
	if err := set(job.ID, Canceled); err != nil {
		t.Fatalf("queued → canceled: %v", err)
	}
	for _, to := range []State{Running, Queued, Done, Failed} {
		if err := set(job.ID, to); err == nil {
			t.Errorf("canceled → %s accepted", to)
		}
	}
	// Counter updates on a terminal job stay legal (same-state update).
	if _, err := s.UpdateJob(job.ID, false, func(j *Job) { j.Completed = 1 }); err != nil {
		t.Errorf("same-state update rejected: %v", err)
	}
	run, _ := s.CreateJob(json.RawMessage(`{}`), 1)
	if err := set(run.ID, Running); err != nil {
		t.Fatal(err)
	}
	if err := set(run.ID, Queued); err != nil {
		t.Errorf("running → queued (drain/resume) rejected: %v", err)
	}
}

// TestWALReplayCancelRecord: a cancel is durable through the raw WAL, with
// no snapshot involved — the signature of a daemon killed right after
// acknowledging a DELETE.
func TestWALReplayCancelRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	job, _ := s.CreateJob(json.RawMessage(`{}`), 3)
	if _, err := s.UpdateJob(job.ID, true, func(j *Job) {
		j.State = Canceled
		j.Error = "canceled by client"
	}); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	s.wal.Close() // crash-style: no checkpoint, replay must come from the WAL

	r := openT(t, dir)
	defer r.Close()
	got, ok := r.Job(job.ID)
	if !ok || got.State != Canceled || got.Error != "canceled by client" {
		t.Fatalf("replayed cancel: ok=%v %+v", ok, got)
	}
	// Terminality survives replay too.
	if _, err := r.UpdateJob(job.ID, true, func(j *Job) { j.State = Running }); err == nil {
		t.Error("replayed canceled job accepted a restart")
	}
}

func TestReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	job, _ := s.CreateJob(json.RawMessage(`{"iterations":3}`), 2)
	s.UpdateJob(job.ID, false, func(j *Job) { j.Completed = 1 })
	// Close WITHOUT checkpointing: drop the handle so reopen must replay
	// the raw WAL, not the snapshot Close would write.
	s.wal.Close()

	r := openT(t, dir)
	defer r.Close()
	got, ok := r.Job(job.ID)
	if !ok || got.Completed != 1 {
		t.Fatalf("replayed job: ok=%v %+v", ok, got)
	}
	// The ID sequence continues past replayed jobs instead of reissuing.
	next, _ := r.CreateJob(json.RawMessage(`{}`), 1)
	if next.ID != "j000002" {
		t.Fatalf("sequence after reopen: %s", next.ID)
	}
}

func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	job, _ := s.CreateJob(json.RawMessage(`{}`), 1)
	s.wal.Close()
	// Simulate a crash mid-append: a partial record with no newline.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"job","job":{"id":"j0000`)
	f.Close()

	r := openT(t, dir)
	defer r.Close()
	if _, ok := r.Job(job.ID); !ok {
		t.Fatal("intact record lost with the torn tail")
	}
	// Appending after the truncation must yield a clean, replayable log.
	if _, err := r.CreateJob(json.RawMessage(`{}`), 1); err != nil {
		t.Fatalf("append after torn tail: %v", err)
	}
	r.wal.Close()
	rr := openT(t, dir)
	defer rr.Close()
	if len(rr.Jobs()) != 2 {
		t.Fatalf("after torn-tail recovery want 2 jobs, got %d", len(rr.Jobs()))
	}
}

func TestCorruptMidWALIsError(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.CreateJob(json.RawMessage(`{}`), 1)
	s.wal.Close()
	raw, _ := os.ReadFile(filepath.Join(dir, "wal.log"))
	// Garbage record FOLLOWED by a valid one: not a torn tail, real rot.
	bad := append([]byte("not json at all\n"), raw...)
	os.WriteFile(filepath.Join(dir, "wal.log"), bad, 0o644)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt mid-log open: %v", err)
	}
}

func TestSnapshotCheckpointAndReload(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.SnapshotEvery = 4
	var lastID string
	for i := 0; i < 6; i++ {
		job, err := s.CreateJob(json.RawMessage(`{}`), 1)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		lastID = job.ID
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot after %d records: %v", 6, err)
	}
	s.wal.Close() // crash-style: snapshot plus post-checkpoint WAL tail

	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 6 {
		t.Fatalf("after snapshot reload: %d jobs, want 6", got)
	}
	if _, ok := r.Job(lastID); !ok {
		t.Fatalf("job %s lost across checkpoint", lastID)
	}
}

func TestCloseCheckpointsAndRefusesFurtherWrites(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.CreateJob(json.RawMessage(`{}`), 1)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := s.CreateJob(json.RawMessage(`{}`), 1); err == nil {
		t.Error("write after close accepted")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil || len(raw) != 0 {
		t.Fatalf("wal not truncated by close: err=%v len=%d", err, len(raw))
	}
	r := openT(t, dir)
	defer r.Close()
	if len(r.Jobs()) != 1 {
		t.Fatalf("snapshot-only reload: %d jobs", len(r.Jobs()))
	}
}

func TestLegacySchemaZeroMigration(t *testing.T) {
	dir := t.TempDir()
	// A v0 snapshot: jobs only, no schema stamp, no rows map.
	legacy := `{"jobs":[{"id":"j000007","state":"done","cells":3,"completed":3}]}`
	os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(legacy), 0o644)
	s := openT(t, dir)
	defer s.Close()
	job, ok := s.Job("j000007")
	if !ok || job.State != Done || job.Cells != 3 {
		t.Fatalf("migrated job: ok=%v %+v", ok, job)
	}
	// The sequence respects migrated IDs.
	next, _ := s.CreateJob(json.RawMessage(`{}`), 1)
	if next.ID != "j000008" {
		t.Fatalf("sequence after migration: %s", next.ID)
	}
	// Close rewrites the snapshot at the current schema.
	s.Close()
	raw, _ := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	var snap struct {
		Schema int `json:"schema"`
	}
	json.Unmarshal(raw, &snap)
	if snap.Schema != SchemaVersion {
		t.Fatalf("rewritten snapshot schema %d, want %d", snap.Schema, SchemaVersion)
	}
}

func TestFutureSchemaRefused(t *testing.T) {
	dir := t.TempDir()
	future := fmt.Sprintf(`{"schema":%d,"jobs":[]}`, SchemaVersion+1)
	os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(future), 0o644)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future schema open: %v", err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
}

// importRows returns the legacy rows s hands over, leaving them imported.
func importRows(t *testing.T, s *Store) map[string]string {
	t.Helper()
	got := map[string]string{}
	if err := s.ImportLegacyRows(func(key string, row json.RawMessage) error {
		got[key] = string(row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// snapshotFields decodes the top-level keys of dir's snapshot.
func snapshotFields(t *testing.T, dir string) map[string]json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	return fields
}

// TestSchemaOneMigrationRoundTrip: a v1 snapshot (jobs + rows, no jobKeys)
// opens and serves its jobs. Its rows are legacy rows: a checkpoint before
// they are imported keeps them (a Close, then a reopen, still hands them
// over), and the first checkpoint after the import drops them.
func TestSchemaOneMigrationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v1 := `{"schema":1,"jobs":[{"id":"j000003","state":"done","cells":2,"completed":2}],` +
		`"rows":{"k1":{"v":1},"k2":{"v":2}}}`
	os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(v1), 0o644)
	s := openT(t, dir)
	job, ok := s.Job("j000003")
	if !ok || job.State != Done {
		t.Fatalf("migrated job: ok=%v %+v", ok, job)
	}
	if n := s.RowCount(); n != 0 {
		t.Fatalf("RowCount %d, want 0 (rows are not store state)", n)
	}
	s.Close()
	fields := snapshotFields(t, dir)
	if string(fields["schema"]) != fmt.Sprint(SchemaVersion) || fields["rows"] == nil {
		t.Fatalf("close before import: schema %s, rows %s; want schema %d with the rows kept",
			fields["schema"], fields["rows"], SchemaVersion)
	}

	r := openT(t, dir)
	want := map[string]string{"k1": `{"v":1}`, "k2": `{"v":2}`}
	if got := importRows(t, r); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported %v, want %v", got, want)
	}
	if got := importRows(t, r); len(got) != 0 {
		t.Fatalf("second import handed over %v again", got)
	}
	r.Close()
	if fields := snapshotFields(t, dir); fields["rows"] != nil || fields["jobKeys"] != nil {
		t.Fatalf("checkpoint after import kept rows or keys: %v", fields)
	}
}

// TestImportLegacyRowsKeepsRowsOnFailure: a put that fails leaves the rows
// it did not take in the store, so the next import gets them.
func TestImportLegacyRowsKeepsRowsOnFailure(t *testing.T) {
	dir := t.TempDir()
	v3 := `{"schema":3,"jobs":[],"rows":{"k1":{"v":1},"k2":{"v":2}},"jobKeys":{}}`
	os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(v3), 0o644)
	s := openT(t, dir)
	defer s.Close()
	taken := map[string]bool{}
	err := s.ImportLegacyRows(func(key string, row json.RawMessage) error {
		if len(taken) == 1 {
			return errors.New("disk full")
		}
		taken[key] = true
		return nil
	})
	if err == nil {
		t.Fatal("failed put not reported")
	}
	rest := importRows(t, s)
	if len(rest) != 1 || len(taken) != 1 {
		t.Fatalf("took %v, then %v; want one row each", taken, rest)
	}
	for k := range rest {
		if taken[k] {
			t.Fatalf("row %s handed over twice", k)
		}
	}
}

// gcFixture builds a store holding three terminal jobs: j1 and j2 done, j3
// failed. IDs are created in order, so j1 is oldest.
func gcFixture(t *testing.T, dir string) (*Store, []Job) {
	t.Helper()
	s := openT(t, dir)
	states := []State{Done, Done, Failed}
	jobs := make([]Job, 3)
	for i := range states {
		job, err := s.CreateJob(json.RawMessage(`{}`), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.UpdateJob(job.ID, true, func(j *Job) { j.State = Running }); err != nil {
			t.Fatal(err)
		}
		if _, err := s.UpdateJob(job.ID, true, func(j *Job) { j.State = states[i] }); err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	return s, jobs
}

// TestGCRetainJobs: MaxJobs 2 prunes only the oldest terminal job, and
// tightening the policy to 1 prunes the next oldest.
func TestGCRetainJobs(t *testing.T) {
	s, jobs := gcFixture(t, t.TempDir())
	defer s.Close()
	s.Retention = RetentionPolicy{MaxJobs: 2}
	pruned, swept, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 1 || swept != 0 {
		t.Fatalf("pruned %d jobs / swept %d rows, want 1/0", pruned, swept)
	}
	if _, ok := s.Job(jobs[0].ID); ok {
		t.Error("oldest terminal job survived MaxJobs 2")
	}
	s.Retention = RetentionPolicy{MaxJobs: 1}
	if pruned, _, err := s.GC(); err != nil || pruned != 1 {
		t.Fatalf("MaxJobs 1 pruned %d (err %v), want 1", pruned, err)
	}
	if _, ok := s.Job(jobs[1].ID); ok {
		t.Error("second-oldest terminal job survived MaxJobs 1")
	}
	if _, ok := s.Job(jobs[2].ID); !ok {
		t.Error("newest terminal job pruned")
	}
}

// TestGCPrunesOnlyTerminalJobs: queued and running jobs are untouchable no
// matter how aggressive the policy.
func TestGCPrunesOnlyTerminalJobs(t *testing.T) {
	s, _ := gcFixture(t, t.TempDir())
	defer s.Close()
	queued, _ := s.CreateJob(json.RawMessage(`{}`), 1)
	running, _ := s.CreateJob(json.RawMessage(`{}`), 1)
	s.UpdateJob(running.ID, true, func(j *Job) { j.State = Running })

	s.Retention = RetentionPolicy{MaxJobs: 1, MaxAge: time.Nanosecond}
	time.Sleep(1100 * time.Millisecond) // Updated has 1s granularity; age everything out
	pruned, _, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 3 {
		t.Fatalf("pruned %d, want exactly the 3 terminal jobs", pruned)
	}
	for _, id := range []string{queued.ID, running.ID} {
		if _, ok := s.Job(id); !ok {
			t.Errorf("non-terminal job %s pruned", id)
		}
	}
}

// TestGCDisabledByZeroPolicy: the zero policy is the pre-GC behavior.
func TestGCDisabledByZeroPolicy(t *testing.T) {
	s, _ := gcFixture(t, t.TempDir())
	defer s.Close()
	pruned, swept, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 0 || swept != 0 {
		t.Fatalf("zero policy pruned %d / swept %d", pruned, swept)
	}
	if len(s.Jobs()) != 3 {
		t.Fatalf("zero policy changed state: %d jobs", len(s.Jobs()))
	}
}

// TestGCSurvivesReopen: a pruned store reopens to exactly the pruned state
// (the GC'd snapshot is the durable truth).
func TestGCSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, jobs := gcFixture(t, dir)
	s.Retention = RetentionPolicy{MaxJobs: 1}
	if _, _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 1 {
		t.Fatalf("reopened with %d jobs, want 1", got)
	}
	if _, ok := r.Job(jobs[2].ID); !ok {
		t.Fatal("newest terminal job lost")
	}
}

// TestSchemaTwoMigrationRoundTrip: a v2 snapshot (jobs + rows + jobKeys, no
// assignments) opens, hands over its row, reports "never dispatched" for its
// jobs, and is rewritten at the current schema with any assignments set
// after migration.
func TestSchemaTwoMigrationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v2 := `{"schema":2,"jobs":[{"id":"j000005","state":"done","cells":2,"completed":2}],` +
		`"rows":{"k1":{"v":1}},"jobKeys":{"j000005":["k1"]}}`
	os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(v2), 0o644)
	s := openT(t, dir)
	job, ok := s.Job("j000005")
	if !ok || job.State != Done {
		t.Fatalf("migrated job: ok=%v %+v", ok, job)
	}
	if rows := importRows(t, s); len(rows) != 1 || rows["k1"] != `{"v":1}` {
		t.Fatalf("migrated rows: %v", rows)
	}
	// Migrated jobs were never dispatched under the distributed scheme.
	if _, ok := s.Assignments("j000005"); ok {
		t.Fatal("migration invented shard assignments")
	}
	assigns := []ShardAssignment{
		{Shard: 0, Total: 2, State: ShardDone, Worker: "w1", Attempts: 1},
		{Shard: 1, Total: 2, State: ShardPending, Attempts: 2, NextEligible: 12345},
	}
	if err := s.SetAssignments("j000005", assigns, true); err != nil {
		t.Fatalf("set assignments: %v", err)
	}
	s.Close()

	raw, _ := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	var snap struct {
		Schema      int                          `json:"schema"`
		Assignments map[string][]ShardAssignment `json:"assignments"`
	}
	json.Unmarshal(raw, &snap)
	if snap.Schema != SchemaVersion {
		t.Fatalf("rewritten snapshot schema %d, want %d", snap.Schema, SchemaVersion)
	}
	if got := snap.Assignments["j000005"]; len(got) != 2 || got[1].NextEligible != 12345 {
		t.Fatalf("assignments not in snapshot: %+v", snap.Assignments)
	}
	r := openT(t, dir)
	defer r.Close()
	got, ok := r.Assignments("j000005")
	if !ok || len(got) != 2 || got[0].State != ShardDone || got[0].Worker != "w1" {
		t.Fatalf("assignments after round-trip: ok=%v %+v", ok, got)
	}
}

// TestAssignmentsWALReplay: assignment updates are whole-list replacements
// and durable through the raw WAL — the coordinator-killed-mid-dispatch
// signature. The last write wins on replay.
func TestAssignmentsWALReplay(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	job, _ := s.CreateJob(json.RawMessage(`{}`), 4)
	first := []ShardAssignment{
		{Shard: 0, Total: 2, State: ShardAssigned, Worker: "w1", Attempts: 1, LeaseDeadline: 99},
		{Shard: 1, Total: 2, State: ShardPending},
	}
	if err := s.SetAssignments(job.ID, first, false); err != nil {
		t.Fatalf("set: %v", err)
	}
	second := []ShardAssignment{
		{Shard: 0, Total: 2, State: ShardDone, Worker: "w1", Attempts: 1},
		{Shard: 1, Total: 2, State: ShardAssigned, Worker: "w2", Attempts: 1, LeaseDeadline: 200},
	}
	if err := s.SetAssignments(job.ID, second, true); err != nil {
		t.Fatalf("replace: %v", err)
	}
	// Mutating the caller's slice after the call must not leak into the store.
	second[0].State = ShardPending
	if err := s.SetAssignments("j424242", first, false); err == nil {
		t.Error("assignments for missing job accepted")
	}
	s.wal.Close() // crash-style: replay must come from the WAL

	r := openT(t, dir)
	defer r.Close()
	got, ok := r.Assignments(job.ID)
	if !ok || len(got) != 2 {
		t.Fatalf("replayed assignments: ok=%v %+v", ok, got)
	}
	if got[0].State != ShardDone || got[1].Worker != "w2" || got[1].LeaseDeadline != 200 {
		t.Fatalf("replay lost the last write: %+v", got)
	}
	// Reads hand out copies, not the live slice.
	got[0].State = ShardPending
	again, _ := r.Assignments(job.ID)
	if again[0].State != ShardDone {
		t.Fatal("Assignments returned the live slice")
	}
}

// TestGCPrunesAssignments: a pruned job's shard assignments go with it —
// they are per-job dispatch state, not shared like rows.
func TestGCPrunesAssignments(t *testing.T) {
	dir := t.TempDir()
	s, jobs := gcFixture(t, dir)
	defer s.Close()
	for _, j := range jobs {
		if err := s.SetAssignments(j.ID, []ShardAssignment{{Shard: 0, Total: 1, State: ShardDone}}, false); err != nil {
			t.Fatal(err)
		}
	}
	s.Retention = RetentionPolicy{MaxJobs: 1}
	if _, _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Assignments(jobs[0].ID); ok {
		t.Error("pruned job kept its assignments")
	}
	if _, ok := s.Assignments(jobs[2].ID); !ok {
		t.Error("surviving job lost its assignments")
	}
	s.Close()
	r := openT(t, dir)
	defer r.Close()
	if _, ok := r.Assignments(jobs[0].ID); ok {
		t.Error("pruned assignments resurrected on reopen")
	}
}

// walState is what a reopened store holds: its jobs, shard assignments and
// legacy rows.
type walState struct {
	Jobs   map[string]Job
	Assign map[string][]ShardAssignment
	Legacy map[string]json.RawMessage
}

func (s *Store) state() walState {
	return walState{Jobs: s.jobs, Assign: s.assignments, Legacy: s.legacyRows}
}

// walLines encodes records as WAL lines, newline included.
func walLines(t *testing.T, recs []record) [][]byte {
	t.Helper()
	lines := make([][]byte, len(recs))
	for i, rec := range recs {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = append(raw, '\n')
	}
	return lines
}

// TestWALTruncatedAtEveryOffset replays a WAL cut at every byte offset, the
// state a crash at any point of an append leaves on disk. Open must recover
// exactly the records that lie wholly (newline included) before the cut,
// with every job's record sequence a legal walk of the state machine, cut
// the file back to that prefix, and read the same state again on a second
// reopen. The v3 log also carries the "row" and "keys" records a schema-3
// store wrote: rows come back as legacy rows, keys are ignored.
func TestWALTruncatedAtEveryOffset(t *testing.T) {
	job := func(id string, st State, completed int) record {
		return record{Op: "job", Job: &Job{ID: id, Spec: json.RawMessage(`{"nodeCounts":[8]}`),
			State: st, Cells: 2, Completed: completed, Created: 1700000000, Updated: 1700000000}}
	}
	assign := func(id string, a ...ShardAssignment) record { return record{Op: "assign", ID: id, Assign: a} }
	v4 := []record{
		job("j000001", Queued, 0),
		job("j000001", Running, 0),
		job("j000001", Running, 1),
		assign("j000001", ShardAssignment{Shard: 0, Total: 2, State: ShardAssigned, Worker: "w000001", Attempts: 1, LeaseDeadline: 99},
			ShardAssignment{Shard: 1, Total: 2, State: ShardPending}),
		job("j000002", Queued, 0),
		assign("j000001", ShardAssignment{Shard: 0, Total: 2, State: ShardDone, Worker: "w000001", Attempts: 1},
			ShardAssignment{Shard: 1, Total: 2, State: ShardDone, Worker: "w000002", Attempts: 1}),
		job("j000001", Done, 2),
		job("j000002", Canceled, 0),
	}
	v3 := []record{
		v4[0],
		{Op: "keys", ID: "j000001"}, // its "keys" list is spliced into the line below
		v4[1], v4[2],
		{Op: "row", Key: "k0", Row: json.RawMessage(`{"scenario":{"index":0}}`)},
		v4[3], v4[4],
		{Op: "row", Key: "k1", Row: json.RawMessage(`{"scenario":{"index":1}}`)},
		v4[5], v4[6], v4[7],
	}
	for name, recs := range map[string][]record{"v4": v4, "v3": v3} {
		t.Run(name, func(t *testing.T) {
			lines := walLines(t, recs)
			if name == "v3" {
				// record has no Keys field any more; write the line a
				// schema-3 store wrote.
				lines[1] = []byte(`{"op":"keys","id":"j000001","keys":["k0","k1"]}` + "\n")
			}
			var wal []byte
			ends := make([]int, len(lines)) // ends[i]: offset just past record i's newline
			for i, line := range lines {
				wal = append(wal, line...)
				ends[i] = len(wal)
			}
			dir := t.TempDir()
			walPath := filepath.Join(dir, "wal.log")
			for cut := 0; cut <= len(wal); cut++ {
				whole := 0
				for whole < len(ends) && ends[whole] <= cut {
					whole++
				}
				keep := 0 // the prefix Open must cut the file back to
				if whole > 0 {
					keep = ends[whole-1]
				}
				want := walState{Jobs: map[string]Job{}, Assign: map[string][]ShardAssignment{},
					Legacy: map[string]json.RawMessage{}}
				for _, rec := range recs[:whole] {
					switch rec.Op {
					case "job":
						if prev, ok := want.Jobs[rec.Job.ID]; ok && !validTransition(prev.State, rec.Job.State) {
							t.Fatalf("fixture: %s: illegal %s → %s", rec.Job.ID, prev.State, rec.Job.State)
						}
						want.Jobs[rec.Job.ID] = *rec.Job
					case "assign":
						want.Assign[rec.ID] = rec.Assign
					case "row":
						want.Legacy[rec.Key] = rec.Row
					}
				}
				if err := os.WriteFile(walPath, wal[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				for reopen := 0; reopen < 2; reopen++ {
					s, err := Open(dir)
					if err != nil {
						t.Fatalf("cut %d, open %d: %v", cut, reopen, err)
					}
					got := s.state()
					s.wal.Close() // crash-style: no checkpoint
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("cut %d (%d whole records), open %d:\n got %+v\nwant %+v", cut, whole, reopen, got, want)
					}
					if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(keep) {
						t.Fatalf("cut %d, open %d: wal not cut back to the %d-byte prefix: %v", cut, reopen, keep, err)
					}
				}
			}
		})
	}
}
