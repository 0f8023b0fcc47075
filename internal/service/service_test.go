package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iotmpc/internal/cache"
	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// testMatrix is the suite's standard 4-cell sweep (2 loss rates × S3/S4 at
// 8 nodes): big enough to have a resume story, small enough to simulate in
// milliseconds.
func testMatrix() experiment.Matrix {
	return experiment.Matrix{
		NodeCounts: []int{8},
		LossRates:  []float64{0, 0.3},
		Iterations: 2,
		Seed:       7,
	}
}

// localJSONL runs the matrix on a plain Runner and returns the JSONL bytes
// the CLI would print — the golden the HTTP stream must match exactly.
func localJSONL(t *testing.T, m experiment.Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := experiment.NewRunner(experiment.WithSinks(&experiment.JSONLSink{W: &buf}))
	if _, err := r.Run(m); err != nil {
		t.Fatalf("local run: %v", err)
	}
	return buf.Bytes()
}

// fixture is one service under test: store + cache in temp dirs, an
// httptest front end, and the scheduler running.
type fixture struct {
	st  *store.Store
	svc *Server
	ts  *httptest.Server
}

func newFixture(t *testing.T, storeDir, cacheDir string, start bool) *fixture {
	t.Helper()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	svc, err := New(Config{Store: st, CacheDir: cacheDir})
	if err != nil {
		st.Close()
		t.Fatalf("service: %v", err)
	}
	f := &fixture{st: st, svc: svc, ts: httptest.NewServer(svc.Handler())}
	if start {
		svc.Start()
	}
	t.Cleanup(func() {
		f.ts.Close()
		f.svc.Close()
		f.st.Close()
	})
	return f
}

func (f *fixture) submit(t *testing.T, m experiment.Matrix) store.Job {
	t.Helper()
	spec, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var job store.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return job
}

func (f *fixture) job(t *testing.T, id string) store.Job {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll: status %d", resp.StatusCode)
	}
	var job store.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return job
}

func (f *fixture) waitDone(t *testing.T, id string) store.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job := f.job(t, id)
		switch job.State {
		case store.Done:
			return job
		case store.Failed:
			t.Fatalf("job %s failed: %s", id, job.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return store.Job{}
}

func (f *fixture) results(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	return raw
}

// TestJobLifecycle is the core loop: submit → poll → done → stream results,
// with the HTTP JSONL byte-identical to the CLI's for the same matrix.
func TestJobLifecycle(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), true)
	m := testMatrix()
	job := f.submit(t, m)
	if job.State != store.Queued || job.Cells != 4 {
		t.Fatalf("submitted job %+v", job)
	}
	done := f.waitDone(t, job.ID)
	if done.Completed != 4 || done.Computed != 4 || done.CacheHits != 0 {
		t.Fatalf("summary after first run: %+v", done)
	}
	got := f.results(t, job.ID)
	want := localJSONL(t, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP results differ from CLI JSONL:\n got: %s\nwant: %s", got, want)
	}
}

// TestDuplicateSubmitComputesZero is the dedup acceptance bar: the second
// job over the same matrix must be served entirely from the shared corpus.
func TestDuplicateSubmitComputesZero(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), true)
	m := testMatrix()
	first := f.waitDone(t, f.submit(t, m).ID)
	second := f.waitDone(t, f.submit(t, m).ID)
	if second.Computed != 0 {
		t.Fatalf("second submission computed %d cells, want 0 (%+v)", second.Computed, second)
	}
	if second.CacheHits != second.Cells {
		t.Fatalf("second submission: %d hits of %d cells", second.CacheHits, second.Cells)
	}
	if got, want := f.results(t, second.ID), f.results(t, first.ID); !bytes.Equal(got, want) {
		t.Fatal("dedup'd job streams different bytes")
	}
}

// TestRunnerConfigDoesNotChangeBytes pins the acceptance requirement that
// the streamed results are byte-identical for any worker/lane configuration.
func TestRunnerConfigDoesNotChangeBytes(t *testing.T) {
	m := testMatrix()
	want := localJSONL(t, m)
	for _, cfg := range []Config{
		{Workers: 1, Lanes: 1},
		{Workers: 3, Lanes: 5},
	} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store, cfg.CacheDir = st, t.TempDir()
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		svc.Start()
		f := &fixture{st: st, svc: svc, ts: ts}
		job := f.waitDone(t, f.submit(t, m).ID)
		if got := f.results(t, job.ID); !bytes.Equal(got, want) {
			t.Errorf("workers=%d lanes=%d: bytes differ from CLI", cfg.Workers, cfg.Lanes)
		}
		ts.Close()
		svc.Close()
		st.Close()
	}
}

// TestSubmitValidation asserts bad specs die at the door as 400s that name
// the offending JSON field — never inside the Runner.
func TestSubmitValidation(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	cases := []struct {
		name, body, wantInError string
	}{
		{"unknown field", `{"nodeCount":[8],"iterations":1}`, "nodeCount"},
		{"missing nodeCounts", `{"iterations":3}`, "nodeCounts"},
		{"tiny network", `{"nodeCounts":[2],"iterations":3}`, "nodeCounts"},
		{"zero iterations", `{"nodeCounts":[8]}`, "iterations"},
		{"bad loss", `{"nodeCounts":[8],"iterations":1,"lossRates":[2.0]}`, "lossRates"},
		{"bad backend", `{"nodeCounts":[8],"iterations":1,"backends":["warp"]}`, "backends"},
		{"not json", `{{{`, "decode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(f.ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			body, _ := io.ReadAll(resp.Body)
			if !strings.Contains(string(body), tc.wantInError) {
				t.Errorf("error body %s does not mention %q", body, tc.wantInError)
			}
		})
	}
	// Nothing queued by any of the rejects.
	if jobs := f.st.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions left %d jobs", len(jobs))
	}
}

func TestUnknownJobRoutes(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/results", "/v1/jobs/j999999/events"} {
		resp, err := http.Get(f.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	// The events request subscribed before finding no job; it must leave
	// no stream behind.
	f.svc.hub.mu.Lock()
	defer f.svc.hub.mu.Unlock()
	if len(f.svc.hub.jobs) != 0 || len(f.svc.hub.order) != 0 {
		t.Errorf("unknown-id events request left %d streams (order %v)", len(f.svc.hub.jobs), f.svc.hub.order)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events off a text/event-stream body until it closes or n
// events arrive.
func readSSE(r io.Reader, n int) []sseEvent {
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			cur = sseEvent{}
			if len(events) >= n {
				return events
			}
		}
	}
	return events
}

// TestSSELifecycle subscribes before the scheduler starts, so the full
// event stream — initial state, per-cell progress, terminal state — is
// observable; a second subscriber that disconnects immediately (churn) must
// not disturb the first.
func TestSSELifecycle(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	job := f.submit(t, testMatrix())

	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Churn: a subscriber that connects and immediately goes away.
	churn, err := http.Get(f.ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	churn.Body.Close()

	f.svc.Start()

	// Drain to EOF: the handler closes the stream after the terminal state.
	events := readSSE(resp.Body, 100)
	if len(events) < 3 {
		t.Fatalf("got %d events: %+v", len(events), events)
	}
	if events[0].name != "state" {
		t.Fatalf("first event %q, want state snapshot", events[0].name)
	}
	progress := 0
	for _, ev := range events {
		if ev.name == "progress" {
			progress++
			var p progressEvent
			if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
				t.Fatalf("progress payload %q: %v", ev.data, err)
			}
			if p.JobID != job.ID || p.Cells != 4 {
				t.Fatalf("progress %+v", p)
			}
		}
	}
	if progress == 0 {
		t.Fatal("no progress events observed")
	}
	last := events[len(events)-1]
	if last.name != "state" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("last event %+v, want terminal done state", last)
	}
}

// TestSSEAfterCompletion: subscribing to a finished job yields its terminal
// state immediately and the stream closes.
func TestSSEAfterCompletion(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), true)
	job := f.waitDone(t, f.submit(t, testMatrix()).ID)
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(resp.Body, 1) // returns because the body CLOSES
	if len(events) != 1 || events[0].name != "state" || !strings.Contains(events[0].data, `"done"`) {
		t.Fatalf("events for finished job: %+v", events)
	}
}

// TestRestartResumeComputesOnlyMissing is the crash story end to end: a job
// killed mid-run (simulated by a store with the job in state Running and a
// cache holding the cells the dead run finished) must be re-queued on
// service construction and complete by computing ONLY the missing cells.
func TestRestartResumeComputesOnlyMissing(t *testing.T) {
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	m := testMatrix()

	// The "dead run": shard 0/2 of the matrix into the shared cache — cells
	// 0 and 1 persisted, 2 and 3 never computed. Exactly the cache state a
	// run killed halfway leaves behind.
	if _, err := experiment.NewRunner(
		experiment.WithCache(cacheDir),
		experiment.WithShard(experiment.ShardSpec{Shard: 0, Total: 2}),
	).Run(m); err != nil {
		t.Fatalf("seed half the cache: %v", err)
	}

	// The dead run's store state: job accepted and marked Running, never
	// finished.
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(m)
	job, err := st.CreateJob(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.UpdateJob(job.ID, true, func(j *store.Job) { j.State = store.Running }); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Restart: New must re-queue the orphaned Running job...
	f := newFixture(t, storeDir, cacheDir, false)
	requeued, ok := f.st.Job(job.ID)
	if !ok || requeued.State != store.Queued {
		t.Fatalf("orphaned running job not re-queued: %+v", requeued)
	}
	if !strings.Contains(requeued.Error, "resumable") {
		t.Errorf("re-queued job not marked resumable: %q", requeued.Error)
	}
	// ...and the scheduler must finish it computing only cells 2 and 3.
	f.svc.Start()
	done := f.waitDone(t, job.ID)
	if done.Computed != 2 || done.Resumed != 2 || done.CacheHits != 2 {
		t.Fatalf("resume summary: computed=%d resumed=%d hits=%d, want 2/2/2",
			done.Computed, done.Resumed, done.CacheHits)
	}
	if got, want := f.results(t, job.ID), localJSONL(t, m); !bytes.Equal(got, want) {
		t.Fatal("resumed job's results differ from the CLI JSONL")
	}
}

// TestResultsPrefixWhileIncomplete: a job whose cache holds entries for a
// prefix of its cells streams exactly that prefix.
func TestResultsPrefixWhileIncomplete(t *testing.T) {
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	m := testMatrix()
	want := localJSONL(t, m)

	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(m)
	job, err := st.CreateJob(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Cache entries for cells 0 and 1 only — cell 2 is the frontier.
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := experiment.ScenarioKeys(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	results, err := cache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	for i := 0; i < 2; i++ {
		if err := results.Put(keys[i], json.RawMessage(bytes.TrimSuffix(lines[i], []byte("\n")))); err != nil {
			t.Fatal(err)
		}
	}

	f := newFixture(t, storeDir, cacheDir, false)
	got := f.results(t, job.ID)
	if wantPrefix := append(append([]byte(nil), lines[0]...), lines[1]...); !bytes.Equal(got, wantPrefix) {
		t.Fatalf("prefix stream:\n got: %s\nwant: %s", got, wantPrefix)
	}
}

// TestCacheWriteFailureFailsJob: a job whose cell could not be written to
// the result cache ends Failed with a CacheWriteError, not Done with a
// short stream, and no completion manifest hides the gap from a rerun.
func TestCacheWriteFailureFailsJob(t *testing.T) {
	cacheDir := t.TempDir()
	m := testMatrix()
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := experiment.ScenarioKeys(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	// A directory squatting at cell 2's entry path: its write fails.
	if err := os.Mkdir(filepath.Join(cacheDir, keys[2]+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, t.TempDir(), cacheDir, true)
	job := f.submit(t, m)
	got := f.waitState(t, job.ID, store.Failed)
	if !strings.Contains(got.Error, "result cache write failed for 1 of 4 cells") {
		t.Fatalf("failure cause %q", got.Error)
	}
	lines := bytes.SplitAfter(localJSONL(t, m), []byte("\n"))
	if stream, want := f.results(t, job.ID), bytes.Join(lines[:2], nil); !bytes.Equal(stream, want) {
		t.Fatalf("stream:\n got %s\nwant the 2-cell prefix %s", stream, want)
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 { // cells 0, 1 and 3 plus the squatter; no manifest
		t.Fatalf("cache holds %d entries, want the 3 written cells and the squatter", len(entries))
	}
}

// TestDrainMarksInFlightResumable: Close while a job runs re-queues it with
// a resumable note instead of failing or finishing it.
func TestDrainMarksInFlightResumable(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), true)
	// A heavier matrix so Close lands mid-sweep; if the race is lost and the
	// job completes first, the test still passes vacuously on Done — so
	// retry a few times and accept whichever interrupted run we catch.
	m := testMatrix()
	m.Iterations = 400
	m.NodeCounts = []int{14}
	job := f.submit(t, m)
	deadline := time.Now().Add(30 * time.Second)
	for f.job(t, job.ID).State == store.Queued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	f.svc.Close()
	got, _ := f.st.Job(job.ID)
	switch got.State {
	case store.Queued:
		if !strings.Contains(got.Error, "resumable") {
			t.Errorf("drained job not marked resumable: %+v", got)
		}
	case store.Done:
		// The sweep won the race; nothing to assert about draining.
	default:
		t.Fatalf("drained job in state %s: %+v", got.State, got)
	}
}

func TestHealthz(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), true)
	f.waitDone(t, f.submit(t, testMatrix()).ID)
	resp, err := http.Get(f.ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	// 4 cells were computed and cached: 4 cell entries + 1 matrix manifest.
	if h.Cache.Entries != 5 {
		t.Errorf("cache entries %d, want 5 (4 cells + manifest)", h.Cache.Entries)
	}
	if h.Cache.TotalBytes <= 0 {
		t.Errorf("cache bytes %d", h.Cache.TotalBytes)
	}
	if h.Jobs[store.Done] != 1 {
		t.Errorf("job states %+v", h.Jobs)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{CacheDir: t.TempDir()}); err == nil {
		t.Error("nil store accepted")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := New(Config{Store: st}); err == nil {
		t.Error("empty cache dir accepted")
	}
}

// TestFailedJobRecordsError: a spec that validates but whose execution
// fails (a trace backend whose file disappears between submit and run)
// lands in Failed with the cause, and the scheduler moves on.
func TestFailedJobRecordsError(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	// Plant a job whose stored spec is valid JSON of the wrong shape: it
	// persists fine (the HTTP front door would have rejected it, but a
	// corrupted store or an older writer could produce it) and fails when the
	// scheduler decodes it back into a Matrix.
	spec := json.RawMessage(`["not","a","matrix"]`)
	job, err := f.st.CreateJob(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.svc.Start()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, _ := f.st.Job(job.ID)
		if got.State == store.Failed {
			if !strings.Contains(got.Error, "decode stored spec") {
				t.Fatalf("failure cause %q", got.Error)
			}
			// The scheduler survives: a healthy job still completes.
			f.waitDone(t, f.submit(t, testMatrix()).ID)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("malformed job never failed")
}

// schema3Store copies testdata/schema3 — a store written by the schema-3
// code — into a fresh directory. It holds a Done distributed job over
// testMatrix whose four result rows exist only in the store: two in the
// snapshot beside a jobKeys map, two as WAL "row" records. A canceled job's
// key list is a WAL "keys" record.
func schema3Store(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "schema3", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// schema3Rows is the fixture job's result stream as the fixture stores it:
// each cell's row, snapshot or WAL, in index order.
func schema3Rows(t *testing.T) []byte {
	t.Helper()
	rows := map[string]json.RawMessage{}
	raw, err := os.ReadFile(filepath.Join("testdata", "schema3", "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Rows map[string]json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	maps.Copy(rows, snap.Rows)
	raw, err = os.ReadFile(filepath.Join("testdata", "schema3", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec struct {
			Op  string          `json:"op"`
			Key string          `json:"key"`
			Row json.RawMessage `json:"row"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op == "row" {
			rows[rec.Key] = rec.Row
		}
	}
	scenarios, err := testMatrix().Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := experiment.ScenarioKeys(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, key := range keys {
		if rows[key] == nil {
			t.Fatalf("fixture lacks the row of cell %s", key)
		}
		out = append(append(out, rows[key]...), '\n')
	}
	return out
}

// TestSchemaThreeUpgrade: opening a schema-3 store under New moves its
// rows into the (empty) cache, so the job's results stream byte for byte as
// the store held them, and the next checkpoint writes schema 4 without rows
// or key lists. A store opened and closed without New first still hands
// every row over at the next New.
func TestSchemaThreeUpgrade(t *testing.T) {
	want := schema3Rows(t)
	if !bytes.Equal(want, localJSONL(t, testMatrix())) {
		t.Fatal("fixture rows differ from a local run of testMatrix")
	}
	t.Run("import", func(t *testing.T) {
		dir := schema3Store(t)
		f := newFixture(t, dir, t.TempDir(), false)
		if got := f.results(t, "j000001"); !bytes.Equal(got, want) {
			t.Fatalf("results after upgrade:\n got %s\nwant %s", got, want)
		}
		if _, _, err := f.st.GC(); err != nil { // a checkpoint
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]json.RawMessage
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		if string(snap["schema"]) != fmt.Sprint(store.SchemaVersion) || snap["rows"] != nil || snap["jobKeys"] != nil {
			t.Fatalf("checkpoint after upgrade: schema %s, rows %d bytes, jobKeys %d bytes; want schema %d without either",
				snap["schema"], len(snap["rows"]), len(snap["jobKeys"]), store.SchemaVersion)
		}
	})
	t.Run("close before import", func(t *testing.T) {
		dir := schema3Store(t)
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		f := newFixture(t, dir, t.TempDir(), false)
		if got := f.results(t, "j000001"); !bytes.Equal(got, want) {
			t.Fatalf("results after close and reopen:\n got %s\nwant %s", got, want)
		}
	})
}
