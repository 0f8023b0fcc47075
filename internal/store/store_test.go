package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
	if err := s.PutRow("cafe", []byte(`{"x":1}`)); err != nil {
		t.Fatalf("put row: %v", err)
	}
	// Close WITHOUT checkpointing: drop the handle so reopen must replay
	// the raw WAL, not the snapshot Close would write.
	s.wal.Close()

	r := openT(t, dir)
	defer r.Close()
	got, ok := r.Job(job.ID)
	if !ok || got.Completed != 1 {
		t.Fatalf("replayed job: ok=%v %+v", ok, got)
	}
	row, ok := r.Row("cafe")
	if !ok || string(row) != `{"x":1}` {
		t.Fatalf("replayed row: ok=%v %q", ok, row)
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

func TestRowDedupByKey(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	s.PutRow("k1", []byte(`{"v":1}`))
	s.PutRow("k1", []byte(`{"v":1}`))
	s.PutRow("k2", []byte(`{"v":2}`))
	if n := s.RowCount(); n != 2 {
		t.Fatalf("row count %d, want 2 (k1 deduplicated)", n)
	}
	if err := s.PutRow("", []byte(`{}`)); err == nil {
		t.Error("empty key accepted")
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

// TestSchemaOneMigrationRoundTrip: a v1 snapshot (jobs + rows, no jobKeys)
// opens, serves, and is rewritten at the current schema; the migrated jobs
// have no key lists until someone backfills them.
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
	if n := s.RowCount(); n != 2 {
		t.Fatalf("migrated rows: %d, want 2", n)
	}
	if _, ok := s.JobKeys("j000003"); ok {
		t.Fatal("migration invented a key list")
	}
	if err := s.SetJobKeys("j000003", []string{"k1", "k2"}); err != nil {
		t.Fatalf("backfill: %v", err)
	}
	s.Close()

	raw, _ := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	var snap struct {
		Schema  int                 `json:"schema"`
		JobKeys map[string][]string `json:"jobKeys"`
	}
	json.Unmarshal(raw, &snap)
	if snap.Schema != SchemaVersion {
		t.Fatalf("rewritten snapshot schema %d, want %d", snap.Schema, SchemaVersion)
	}
	if got := snap.JobKeys["j000003"]; len(got) != 2 {
		t.Fatalf("backfilled keys not in snapshot: %v", snap.JobKeys)
	}
	r := openT(t, dir)
	defer r.Close()
	if keys, ok := r.JobKeys("j000003"); !ok || len(keys) != 2 {
		t.Fatalf("keys after round-trip: ok=%v %v", ok, keys)
	}
}

// gcFixture builds a store holding three terminal jobs with overlapping row
// references:
//
//	j1 (done):   rows A, S
//	j2 (done):   rows B, S   (S shared with j1)
//	j3 (failed): row  C
//
// plus rows for every key. IDs are created in order, so j1 is oldest.
func gcFixture(t *testing.T, dir string) (*Store, []Job) {
	t.Helper()
	s := openT(t, dir)
	keysOf := [][]string{{"A", "S"}, {"B", "S"}, {"C"}}
	states := []State{Done, Done, Failed}
	jobs := make([]Job, 3)
	for i := range keysOf {
		job, err := s.CreateJob(json.RawMessage(`{}`), len(keysOf[i]))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetJobKeys(job.ID, keysOf[i]); err != nil {
			t.Fatal(err)
		}
		for _, k := range keysOf[i] {
			if err := s.PutRow(k, []byte(`{"row":"`+k+`"}`)); err != nil {
				t.Fatal(err)
			}
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

// TestGCRetainJobsSweepsUnreferencedRows: MaxJobs 2 prunes only the oldest
// terminal job; its exclusive row goes, the row it shared with a surviving
// job stays (refcount-by-mark semantics).
func TestGCRetainJobsSweepsUnreferencedRows(t *testing.T) {
	s, jobs := gcFixture(t, t.TempDir())
	defer s.Close()
	s.Retention = RetentionPolicy{MaxJobs: 2}
	pruned, swept, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 1 || swept != 1 {
		t.Fatalf("pruned %d jobs / swept %d rows, want 1/1", pruned, swept)
	}
	if _, ok := s.Job(jobs[0].ID); ok {
		t.Error("oldest terminal job survived MaxJobs 2")
	}
	if _, ok := s.Row("A"); ok {
		t.Error("pruned job's exclusive row A survived")
	}
	if _, ok := s.Row("S"); !ok {
		t.Error("row S shared with a surviving job was swept")
	}
	// Pruning the second sharer releases the last reference to S.
	s.Retention = RetentionPolicy{MaxJobs: 1}
	if _, _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Row("S"); ok {
		t.Error("row S survived the last referencing job")
	}
	if _, ok := s.Row("C"); !ok {
		t.Error("retained job's row C was swept")
	}
}

// TestGCPrunesOnlyTerminalJobs: queued and running jobs are untouchable no
// matter how aggressive the policy, and their rows stay marked.
func TestGCPrunesOnlyTerminalJobs(t *testing.T) {
	s, _ := gcFixture(t, t.TempDir())
	defer s.Close()
	queued, _ := s.CreateJob(json.RawMessage(`{}`), 1)
	s.SetJobKeys(queued.ID, []string{"Q"})
	s.PutRow("Q", []byte(`{}`))
	running, _ := s.CreateJob(json.RawMessage(`{}`), 1)
	s.SetJobKeys(running.ID, []string{"R"})
	s.PutRow("R", []byte(`{}`))
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
	for _, k := range []string{"Q", "R"} {
		if _, ok := s.Row(k); !ok {
			t.Errorf("live job's row %s swept", k)
		}
	}
}

// TestGCConservativeWithoutJobKeys: if any surviving job has no recorded
// key list, GC prunes jobs but refuses to sweep rows (it cannot know what
// that job references). Backfilling the keys re-enables sweeping.
func TestGCConservativeWithoutJobKeys(t *testing.T) {
	s, _ := gcFixture(t, t.TempDir())
	defer s.Close()
	// A legacy-style job: terminal, no key list, must be retained.
	legacy, _ := s.CreateJob(json.RawMessage(`{}`), 1)
	s.UpdateJob(legacy.ID, true, func(j *Job) { j.State = Running })
	s.UpdateJob(legacy.ID, true, func(j *Job) { j.State = Done })

	s.Retention = RetentionPolicy{MaxJobs: 2} // keeps legacy (newest) + j3
	pruned, swept, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 2 || swept != 0 {
		t.Fatalf("pruned %d / swept %d, want 2 pruned and 0 swept (legacy job blocks sweeping)", pruned, swept)
	}
	if _, ok := s.Row("A"); !ok {
		t.Fatal("row swept while a surviving job's references were unknown")
	}
	if err := s.SetJobKeys(legacy.ID, nil); err != nil {
		t.Fatal(err)
	}
	// Sweeping only runs when a prune happens; tighten the policy so the
	// next GC prunes j3 and, with every surviving job's keys now known,
	// sweeps the orphans left behind by the conservative pass.
	s.Retention = RetentionPolicy{MaxJobs: 1}
	if _, swept, err = s.GC(); err != nil || swept == 0 {
		t.Fatalf("swept %d rows after backfill (err %v), want > 0", swept, err)
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
	if len(s.Jobs()) != 3 || s.RowCount() != 4 {
		t.Fatalf("zero policy changed state: %d jobs, %d rows", len(s.Jobs()), s.RowCount())
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
	if n := r.RowCount(); n != 1 {
		t.Fatalf("reopened with %d rows, want 1 (C)", n)
	}
}

// TestSchemaTwoMigrationRoundTrip: a v2 snapshot (jobs + rows + jobKeys, no
// assignments) opens, reports "never dispatched" for its jobs, and is
// rewritten at the current schema with any assignments set after migration.
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
	if keys, ok := s.JobKeys("j000005"); !ok || len(keys) != 1 {
		t.Fatalf("migrated keys: ok=%v %v", ok, keys)
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

// TestWriteSnapshotMatchesMarshal pins the streamed checkpoint to the bytes
// json.Marshal writes for the same snapshot, so the on-disk format is
// unchanged: rows in key order, values compacted and HTML-escaped as the
// encoder does, the omitempty maps omitted, and nil rows written as null.
func TestWriteSnapshotMatchesMarshal(t *testing.T) {
	full := snapshot{
		Schema: SchemaVersion,
		Jobs: []Job{
			{ID: "j000001", Spec: json.RawMessage(`{"nodeCounts": [8]}`), State: Done, Cells: 2, Completed: 2},
			{ID: "j000002", Spec: json.RawMessage(`{}`), State: Failed, Error: "x < y & z"},
		},
		Rows: map[string]json.RawMessage{
			"b2":      json.RawMessage(`{"a": 1,  "s": "<tag>&"}`),
			"a1":      json.RawMessage(`[1, 2, 3]`),
			"c3<&>\n": json.RawMessage(`"v"`),
		},
		JobKeys:     map[string][]string{"j000001": {"a1", "b2"}},
		Assignments: map[string][]ShardAssignment{"j000001": {{Shard: 0, Total: 1, State: "done", Worker: "w1"}}},
	}
	for name, snap := range map[string]snapshot{
		"full":    full,
		"no-maps": {Schema: SchemaVersion, Jobs: full.Jobs, Rows: full.Rows},
		"empty":   {Schema: SchemaVersion, Rows: map[string]json.RawMessage{}},
		"nil":     {Schema: SchemaVersion},
	} {
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		w := bufio.NewWriter(&got)
		if err := writeSnapshot(w, snap); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got.Bytes(), want)
		}
	}
}
