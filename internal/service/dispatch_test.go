package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// coordCfg is the suite's fast-failure coordinator tuning: leases expire in
// fractions of a second and backoff is milliseconds, so every re-queue path
// is exercised in test time.
func coordCfg(st *store.Store, cacheDir string) Config {
	return Config{
		Store:            st,
		CacheDir:         cacheDir,
		Coordinator:      true,
		LeaseTTL:         300 * time.Millisecond,
		LeaseScanEvery:   10 * time.Millisecond,
		ShardBackoffBase: 5 * time.Millisecond,
		ShardBackoffMax:  20 * time.Millisecond,
		MaxShardAttempts: 3,
	}
}

// newCoordFixture is newFixture with the service in coordinator mode.
func newCoordFixture(t *testing.T, storeDir, cacheDir string, mutate func(*Config)) *fixture {
	t.Helper()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	cfg := coordCfg(st, cacheDir)
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		st.Close()
		t.Fatalf("service: %v", err)
	}
	f := &fixture{st: st, svc: svc, ts: httptest.NewServer(svc.Handler())}
	svc.Start()
	t.Cleanup(func() {
		f.ts.Close()
		f.svc.Close()
		f.st.Close()
	})
	return f
}

// startWorker launches a real Worker against the fixture and returns its
// stop function (idempotent; also registered as cleanup).
func startWorker(t *testing.T, f *fixture, name, cacheDir string, chaos *Chaos) (stop func()) {
	t.Helper()
	_, stop = runWorker(t, WorkerConfig{
		Coordinator:    f.ts.URL,
		Name:           name,
		CacheDir:       cacheDir,
		HeartbeatEvery: 20 * time.Millisecond,
		Chaos:          chaos,
	})
	return stop
}

// runWorker launches a Worker with the given configuration and returns it
// with its stop function (idempotent; also registered as cleanup).
func runWorker(t *testing.T, cfg WorkerConfig) (w *Worker, stop func()) {
	t.Helper()
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatalf("worker %s: %v", cfg.Name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("worker %s: %v", cfg.Name, err)
		}
	}()
	stop = func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return w, stop
}

// TestDistributedJobByteIdentical is the tentpole acceptance bar in-process:
// two workers with SEPARATE caches execute a job's shards, stream rows back,
// and the merged result stream is byte-identical to a solo CLI run.
func TestDistributedJobByteIdentical(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), nil)
	startWorker(t, f, "w1", t.TempDir(), nil)
	startWorker(t, f, "w2", t.TempDir(), nil)
	m := testMatrix()
	done := f.waitDone(t, f.submit(t, m).ID)
	if done.Completed != 4 {
		t.Fatalf("completed %d of 4: %+v", done.Completed, done)
	}
	if done.Computed+done.CacheHits != 4 {
		t.Fatalf("computed %d + hits %d != 4 cells", done.Computed, done.CacheHits)
	}
	if got, want := f.results(t, done.ID), localJSONL(t, m); !bytes.Equal(got, want) {
		t.Fatalf("distributed results differ from solo run:\n got: %s\nwant: %s", got, want)
	}
}

// TestDistributedSurvivesWorkerDeath: a worker dies mid-job; its lease
// expires, the shard re-queues to the survivor, and the job completes
// byte-identically.
func TestDistributedSurvivesWorkerDeath(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), nil)
	shared := t.TempDir() // shared cache: the survivor resumes the dead worker's cells
	stop1 := startWorker(t, f, "victim", shared, nil)
	startWorker(t, f, "survivor", shared, nil)
	m := testMatrix()
	m.Iterations = 40 // slow the shards enough that the kill lands mid-job
	job := f.submit(t, m)

	// Kill the victim once dispatch has begun (it may or may not hold a
	// shard at that instant — both interleavings must complete).
	deadline := time.Now().Add(10 * time.Second)
	for f.job(t, job.ID).State == store.Queued && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop1()
	done := f.waitDone(t, job.ID)
	if done.Completed != 4 {
		t.Fatalf("completed %d of 4: %+v", done.Completed, done)
	}
	if got, want := f.results(t, job.ID), localJSONL(t, m); !bytes.Equal(got, want) {
		t.Fatal("results after worker death differ from solo run")
	}
}

// --- raw worker driver ------------------------------------------------------
// A hand-driven worker speaking the wire protocol directly, for tests that
// need precise control over when heartbeats stop and what gets uploaded.

func registerRaw(t *testing.T, baseURL, name string) workerInfo {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/workers", "application/json",
		strings.NewReader(fmt.Sprintf(`{"name":%q}`, name)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	var info workerInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func heartbeatRaw(t *testing.T, baseURL, id string) (grants []shardGrant, status int) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/workers/%s/heartbeat", baseURL, id), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var hb heartbeatResponse
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	return hb.Grants, resp.StatusCode
}

// waitGrant heartbeats until the worker holds at least one shard.
func waitGrant(t *testing.T, baseURL, id string) shardGrant {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		grants, status := heartbeatRaw(t, baseURL, id)
		if status != http.StatusOK {
			t.Fatalf("heartbeat status %d while waiting for a grant", status)
		}
		if len(grants) > 0 {
			return grants[0]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no grant arrived")
	return shardGrant{}
}

func uploadRowsRaw(t *testing.T, baseURL, id string, g shardGrant, lines [][]byte) rowsResponse {
	t.Helper()
	var body bytes.Buffer
	for _, l := range lines {
		body.Write(l)
		body.WriteByte('\n')
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/workers/%s/shards/%s/%d/rows", baseURL, id, g.Job, g.Shard),
		"application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("rows: status %d: %s", resp.StatusCode, raw)
	}
	var ack rowsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

func reportDoneRaw(t *testing.T, baseURL, id string, g shardGrant) (shardDoneResponse, int) {
	t.Helper()
	body, _ := json.Marshal(shardDoneRequest{Attempt: g.Attempt})
	resp, err := http.Post(fmt.Sprintf("%s/v1/workers/%s/shards/%s/%d/done", baseURL, id, g.Job, g.Shard),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack shardDoneResponse
	json.NewDecoder(resp.Body).Decode(&ack)
	return ack, resp.StatusCode
}

// rowLines splits the solo-run golden into per-cell row lines.
func rowLines(t *testing.T, m experiment.Matrix) [][]byte {
	t.Helper()
	var lines [][]byte
	for _, l := range bytes.Split(localJSONL(t, m), []byte("\n")) {
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestWorkerEndpointsRequireCoordinator: on a plain sweepd the distributed
// surface answers 409, so a misdirected -join fails loudly, not silently.
func TestWorkerEndpointsRequireCoordinator(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	resp, err := http.Post(f.ts.URL+"/v1/workers", "application/json", strings.NewReader(`{"name":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("register on non-coordinator: status %d, want 409", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "coordinator") {
		t.Fatalf("409 body does not explain the problem: %s", body)
	}
}

// TestHeartbeatAfterExpiry is the first lease race: a worker whose lease
// has already expired (and been scanned away) heartbeats — it must get 410
// and its shard must already be back in the pending pool, re-grantable to
// a new registration.
func TestHeartbeatAfterExpiry(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), nil)
	m := testMatrix()
	job := f.submit(t, m)
	w := registerRaw(t, f.ts.URL, "laggard")
	g := waitGrant(t, f.ts.URL, w.ID)
	if g.Job != job.ID || g.Attempt != 1 {
		t.Fatalf("grant %+v", g)
	}
	// Go silent past the lease — heartbeating while waiting would renew the
	// very lease under test — then heartbeat once, just after expiry.
	time.Sleep(3 * coordCfg(nil, "").LeaseTTL)
	if _, status := heartbeatRaw(t, f.ts.URL, w.ID); status != http.StatusGone {
		t.Fatalf("heartbeat after expiry: status %d, want 410", status)
	}
	// The shard is re-grantable — to a NEW registration, with a bumped
	// attempt counter.
	w2 := registerRaw(t, f.ts.URL, "replacement")
	g2 := waitGrant(t, f.ts.URL, w2.ID)
	if g2.Job != job.ID || g2.Shard != g.Shard {
		t.Fatalf("re-grant %+v, want shard %d of %s", g2, g.Shard, job.ID)
	}
	if g2.Attempt != g.Attempt+1 {
		t.Fatalf("re-grant attempt %d, want %d", g2.Attempt, g.Attempt+1)
	}
	// Assignment state (with the attempt history) is persisted.
	assigns, ok := f.st.Assignments(job.ID)
	if !ok || assigns[g.Shard].Attempts != 2 || assigns[g.Shard].Worker != w2.ID {
		t.Fatalf("persisted assignments: ok=%v %+v", ok, assigns)
	}
}

// TestZombieDuplicateCompletionIdempotent is the second lease race: a
// worker loses its lease mid-shard, the shard is re-executed elsewhere and
// the job finishes — then the zombie reports in. Its uploads and completion
// report must be absorbed without changing the job's terminal record or its
// result bytes.
func TestZombieDuplicateCompletionIdempotent(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), nil)
	m := testMatrix()
	job := f.submit(t, m)
	lines := rowLines(t, m)

	// The zombie-to-be claims the whole matrix (single worker: 1 shard),
	// uploads HALF its rows, then goes silent.
	z := registerRaw(t, f.ts.URL, "zombie")
	g := waitGrant(t, f.ts.URL, z.ID)
	if g.Total != 1 {
		t.Fatalf("grant total %d, want 1 (single registered worker)", g.Total)
	}
	uploadRowsRaw(t, f.ts.URL, z.ID, g, lines[:2])
	// A premature done report must be refused: rows are missing.
	if _, status := reportDoneRaw(t, f.ts.URL, z.ID, g); status != http.StatusConflict {
		t.Fatalf("done with missing rows: status %d, want 409", status)
	}

	// A real worker takes over after the lease expires and finishes the job.
	startWorker(t, f, "heir", t.TempDir(), nil)
	done := f.waitDone(t, job.ID)
	want := localJSONL(t, m)
	if got := f.results(t, job.ID); !bytes.Equal(got, want) {
		t.Fatal("results before zombie differ from solo run")
	}

	// The zombie wakes up and replays its whole shard: rows, then done.
	ack := uploadRowsRaw(t, f.ts.URL, z.ID, g, lines)
	if !ack.Stale {
		t.Fatalf("zombie rows not marked stale: %+v", ack)
	}
	dack, status := reportDoneRaw(t, f.ts.URL, z.ID, g)
	if status != http.StatusOK || !dack.Stale {
		t.Fatalf("zombie done: status %d ack %+v, want stale 200", status, dack)
	}
	after := f.job(t, job.ID)
	if after.State != store.Done || after.Completed != done.Completed || after.Computed != done.Computed {
		t.Fatalf("zombie changed the terminal record: before %+v after %+v", done, after)
	}
	if got := f.results(t, job.ID); !bytes.Equal(got, want) {
		t.Fatal("zombie changed the result bytes")
	}
}

// TestShardAttemptBudget: a shard that keeps losing its lease fails its job
// with the typed ShardError naming the shard, after exactly MaxShardAttempts
// grants.
func TestShardAttemptBudget(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), func(c *Config) { c.MaxShardAttempts = 2 })
	job := f.submit(t, testMatrix())
	// Two generations of workers take the shard and die without computing.
	for attempt := 1; attempt <= 2; attempt++ {
		w := registerRaw(t, f.ts.URL, fmt.Sprintf("flaky-%d", attempt))
		g := waitGrant(t, f.ts.URL, w.ID)
		if g.Attempt != attempt {
			t.Fatalf("generation %d granted attempt %d", attempt, g.Attempt)
		}
		// Abandon: no more heartbeats from this identity.
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		j := f.job(t, job.ID)
		if j.State == store.Failed {
			if !strings.Contains(j.Error, "shard 0/1") || !strings.Contains(j.Error, "after 2 attempts") {
				t.Fatalf("failure error %q does not name the shard and budget", j.Error)
			}
			return
		}
		if j.State == store.Done {
			t.Fatal("job completed despite every worker dying")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never failed")
}

// TestCoordinatorRestartResumesDispatch is the third lease race: the
// coordinator dies mid-dispatch with one shard done and one assigned. The
// restarted coordinator must resume from the persisted assignments — done
// shard untouched, assigned shard re-queued — and finish without
// recomputing the completed range.
func TestCoordinatorRestartResumesDispatch(t *testing.T) {
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	m := testMatrix()
	var jobID string
	var doneShard shardGrant
	{
		f := newCoordFixture(t, storeDir, cacheDir, nil)
		jobID = f.submit(t, m).ID
		// Two raw workers so the matrix splits into two shards.
		w1 := registerRaw(t, f.ts.URL, "w1")
		w2 := registerRaw(t, f.ts.URL, "w2")
		g1 := waitGrant(t, f.ts.URL, w1.ID)
		g2 := waitGrant(t, f.ts.URL, w2.ID)
		if g1.Total != 2 || g2.Total != 2 || g1.Shard == g2.Shard {
			t.Fatalf("grants %+v / %+v, want distinct shards of 2", g1, g2)
		}
		// w1 completes its shard for real (upload golden rows + done).
		lines := rowLines(t, m)
		lo, hi := experiment.ShardSpec{Shard: g1.Shard, Total: 2}.Range(len(lines))
		uploadRowsRaw(t, f.ts.URL, w1.ID, g1, lines[lo:hi])
		if ack, status := reportDoneRaw(t, f.ts.URL, w1.ID, g1); status != http.StatusOK || !ack.Done {
			t.Fatalf("w1 done: status %d ack %+v", status, ack)
		}
		doneShard = g1
		// Coordinator "dies" (drains); w2 still holds its shard.
		f.ts.Close()
		f.svc.Close()
		f.st.Close()
	}
	// The drained job is resumable and its assignments survived.
	{
		st := openStoreT(t, storeDir)
		j, ok := st.Job(jobID)
		if !ok || j.State != store.Queued || !strings.Contains(j.Error, "resumable") {
			t.Fatalf("job after drain: ok=%v %+v", ok, j)
		}
		assigns, ok := st.Assignments(jobID)
		if !ok || len(assigns) != 2 {
			t.Fatalf("assignments after drain: ok=%v %+v", ok, assigns)
		}
		if assigns[doneShard.Shard].State != store.ShardDone {
			t.Fatalf("done shard lost: %+v", assigns)
		}
		st.Close()
	}
	// Restart: a real worker finishes only the unfinished shard.
	f := newCoordFixture(t, storeDir, cacheDir, nil)
	startWorker(t, f, "heir", t.TempDir(), nil)
	done := f.waitDone(t, jobID)
	if done.Completed != 4 {
		t.Fatalf("completed %d of 4 after restart", done.Completed)
	}
	// The done shard's cells were restored, not recomputed: they count as
	// cache hits, and the heir computed at most the other shard's range.
	if done.CacheHits < 2 {
		t.Fatalf("restored shard not counted as hits: %+v", done)
	}
	if done.Computed > 2 {
		t.Fatalf("restart recomputed finished cells: %+v", done)
	}
	if got, want := f.results(t, jobID), localJSONL(t, m); !bytes.Equal(got, want) {
		t.Fatal("results after coordinator restart differ from solo run")
	}
}

func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHealthzCoordinator: the healthz body exposes queue depth, active
// jobs, and per-worker lease state; a coordinator with dispatching jobs and
// no workers reports itself degraded.
func TestHealthzCoordinator(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), nil)
	f.submit(t, testMatrix())
	// Wait until the dispatcher has admitted the job (dispatching, no
	// workers → degraded). The store marks a claimed job running before
	// runJobDispatch admits it, so the job's state alone can be read inside
	// that window.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, dispatching := f.svc.disp.health(); dispatching > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	h := getHealthz(t, f)
	if !h.Coordinator || h.Status != "degraded" {
		t.Fatalf("workerless coordinator healthz: %+v", h)
	}
	if h.ActiveJobs != 1 {
		t.Fatalf("activeJobs %d, want 1", h.ActiveJobs)
	}
	// A worker joins and takes the shard: status recovers and the lease
	// state is visible.
	w := registerRaw(t, f.ts.URL, "ward")
	g := waitGrant(t, f.ts.URL, w.ID)
	h = getHealthz(t, f)
	if h.Status != "ok" || len(h.Workers) != 1 {
		t.Fatalf("healthz with worker: %+v", h)
	}
	if h.Workers[0].ID != w.ID || h.Workers[0].LeaseRemainingMillis <= 0 {
		t.Fatalf("worker entry %+v", h.Workers[0])
	}
	wantShard := fmt.Sprintf("%s/%d", g.Job, g.Shard)
	if len(h.Workers[0].Shards) != 1 || h.Workers[0].Shards[0] != wantShard {
		t.Fatalf("worker shards %v, want [%s]", h.Workers[0].Shards, wantShard)
	}
}

func getHealthz(t *testing.T, f *fixture) healthz {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCoordinatorFailsJobOnCacheWriteErrors: the merged summary of a
// distributed job counts the cache writes its workers could not make, and a
// job with any fails with a CacheWriteError instead of reaching Done. The
// uploaded rows themselves are in the coordinator's cache.
func TestCoordinatorFailsJobOnCacheWriteErrors(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), nil)
	m := testMatrix()
	job := f.submit(t, m)
	w := registerRaw(t, f.ts.URL, "lossy")
	g := waitGrant(t, f.ts.URL, w.ID)
	uploadRowsRaw(t, f.ts.URL, w.ID, g, rowLines(t, m))
	body, _ := json.Marshal(shardDoneRequest{Attempt: g.Attempt,
		Summary: experiment.RunSummary{Cells: 4, Computed: 4, CacheWriteErrors: 1}})
	resp, err := http.Post(fmt.Sprintf("%s/v1/workers/%s/shards/%s/%d/done", f.ts.URL, w.ID, g.Job, g.Shard),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := f.waitState(t, job.ID, store.Failed)
	if !strings.Contains(got.Error, "result cache write failed for 1 of 4 cells") {
		t.Fatalf("failure cause %q", got.Error)
	}
	if stream := f.results(t, job.ID); !bytes.Equal(stream, localJSONL(t, m)) {
		t.Fatalf("uploaded rows not in the coordinator's cache:\n%s", stream)
	}
}
