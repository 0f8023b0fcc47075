package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// bigMatrix is a sweep heavy enough that a 1-cell job admitted behind it has
// time to overtake: 8 cells of a 14-node network at 400 iterations each.
func bigMatrix() experiment.Matrix {
	return experiment.Matrix{
		NodeCounts: []int{14},
		LossRates:  []float64{0, 0.1, 0.2, 0.3},
		Iterations: 400,
		Seed:       11,
	}
}

// oneCellMatrix is the smallest possible job: one protocol, one loss rate,
// one iteration.
func oneCellMatrix() experiment.Matrix {
	return experiment.Matrix{
		NodeCounts: []int{8},
		LossRates:  []float64{0},
		Iterations: 1,
		Seed:       1,
		Protocols:  []core.Protocol{core.S4},
	}
}

// newSchedFixture is newFixture with an explicit scheduler Config.
func newSchedFixture(t *testing.T, cfg Config, start bool) *fixture {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	cfg.Store, cfg.CacheDir = st, t.TempDir()
	svc, err := New(cfg)
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

// waitState polls the store until the job reaches state (or any terminal
// state, which fails the test if it is the wrong one).
func (f *fixture) waitState(t *testing.T, id string, want store.State) store.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := f.st.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if job.State == want {
			return job
		}
		if job.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, job.State, job.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return store.Job{}
}

// TestFairnessSmallJobOvertakesLarge is the tentpole acceptance test: a
// 1-cell job submitted while an 8-cell sweep is mid-flight finishes first,
// and BOTH jobs' result streams are byte-identical to solo CLI runs of the
// same matrices.
func TestFairnessSmallJobOvertakesLarge(t *testing.T) {
	// One pool worker serializes cells, making the round-robin interleave
	// deterministic: after the in-flight big cell, the small job's cell is
	// next.
	f := newSchedFixture(t, Config{Workers: 1, MaxActiveJobs: 2}, true)
	big := f.submit(t, bigMatrix())
	f.waitState(t, big.ID, store.Running)
	small := f.submit(t, oneCellMatrix())

	smallDone := f.waitDone(t, small.ID)
	if smallDone.Completed != 1 {
		t.Fatalf("small job summary: %+v", smallDone)
	}
	if j, _ := f.st.Job(big.ID); j.State != store.Running {
		t.Fatalf("big job already %s when the 1-cell job finished — no overtake happened", j.State)
	}
	bigDone := f.waitDone(t, big.ID)
	if bigDone.Completed != 8 {
		t.Fatalf("big job summary: %+v", bigDone)
	}

	if got, want := f.results(t, small.ID), localJSONL(t, oneCellMatrix()); !bytes.Equal(got, want) {
		t.Fatalf("small job stream differs from solo CLI run:\n got: %s\nwant: %s", got, want)
	}
	if got, want := f.results(t, big.ID), localJSONL(t, bigMatrix()); !bytes.Equal(got, want) {
		t.Fatal("big job stream differs from solo CLI run")
	}
}

// TestConcurrentJobsByteIdentical: several jobs interleaving on a shared
// multi-worker pool each stream exactly the bytes of a solo run — the
// scheduler only decides when cells compute, never what they produce.
func TestConcurrentJobsByteIdentical(t *testing.T) {
	matrices := []experiment.Matrix{
		{NodeCounts: []int{8}, LossRates: []float64{0, 0.3}, Iterations: 2, Seed: 7},
		{NodeCounts: []int{10}, LossRates: []float64{0.1}, Iterations: 3, Seed: 9},
		{NodeCounts: []int{8, 12}, LossRates: []float64{0.2}, Iterations: 2, Seed: 3},
	}
	f := newSchedFixture(t, Config{Workers: 3, MaxActiveJobs: 3}, true)
	var ids []string
	for _, m := range matrices {
		ids = append(ids, f.submit(t, m).ID)
	}
	for i, id := range ids {
		f.waitDone(t, id)
		if got, want := f.results(t, id), localJSONL(t, matrices[i]); !bytes.Equal(got, want) {
			t.Errorf("job %d stream differs from solo CLI run", i)
		}
	}
}

// del issues DELETE /v1/jobs/{id} and returns the response.
func (f *fixture) del(t *testing.T, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCancelQueuedJob: canceling before the scheduler starts kills the job
// on the spot — 200 with the terminal record, no cells ever computed.
func TestCancelQueuedJob(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	job := f.submit(t, testMatrix())
	resp := f.del(t, job.ID)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d", resp.StatusCode)
	}
	var got store.Job
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != store.Canceled || !strings.Contains(got.Error, "before start") {
		t.Fatalf("canceled record: %+v", got)
	}
	// Starting the scheduler afterwards must not resurrect it.
	f.svc.Start()
	time.Sleep(50 * time.Millisecond)
	if j, _ := f.st.Job(job.ID); j.State != store.Canceled || j.Completed != 0 {
		t.Fatalf("canceled job after scheduler start: %+v", j)
	}
}

// TestCancelRunningJob: DELETE on a running job answers 202, the job drains
// into the terminal canceled state, and a resubmission of the same matrix
// completes normally (resuming from whatever the canceled run cached).
func TestCancelRunningJob(t *testing.T) {
	f := newSchedFixture(t, Config{Workers: 1}, true)
	job := f.submit(t, bigMatrix())
	f.waitState(t, job.ID, store.Running)
	resp := f.del(t, job.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: status %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	var got store.Job
	for time.Now().Before(deadline) {
		got, _ = f.st.Job(job.ID)
		if got.State.Terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.State != store.Canceled || !strings.Contains(got.Error, "canceled by client") {
		t.Fatalf("after cancel: %+v", got)
	}
	// Idempotent: canceling again is a 200 echo of the record.
	again := f.del(t, job.ID)
	again.Body.Close()
	if again.StatusCode != http.StatusOK {
		t.Fatalf("re-cancel: status %d, want 200", again.StatusCode)
	}
	// The canceled job's partial results are still a clean prefix, and the
	// same matrix resubmitted runs to completion.
	resub := f.waitDone(t, f.submit(t, bigMatrix()).ID)
	if resub.Completed != 8 {
		t.Fatalf("resubmission summary: %+v", resub)
	}
	if got, want := f.results(t, resub.ID), localJSONL(t, bigMatrix()); !bytes.Equal(got, want) {
		t.Fatal("resubmitted job stream differs from solo CLI run")
	}
}

// TestCancelTerminalConflict: done and failed jobs cannot be canceled — 409
// with a conflict envelope.
func TestCancelTerminalConflict(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), true)
	job := f.waitDone(t, f.submit(t, testMatrix()).ID)
	resp := f.del(t, job.ID)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done: status %d, want 409", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != codeConflict || !strings.Contains(body.Error.Message, "done") {
		t.Fatalf("conflict envelope: %+v", body)
	}
	missing := f.del(t, "j999999")
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel missing: status %d, want 404", missing.StatusCode)
	}
}

// listPage fetches GET /v1/jobs with the given query string.
func (f *fixture) listPage(t *testing.T, query string) (jobPage, int) {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/v1/jobs" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page jobPage
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
	}
	return page, resp.StatusCode
}

// TestListJobsFilterAndPagination covers GET /v1/jobs: creation order,
// state filtering, limit/after paging with nextAfter.
func TestListJobsFilterAndPagination(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, f.submit(t, testMatrix()).ID)
	}
	resp := f.del(t, ids[1])
	resp.Body.Close()

	all, code := f.listPage(t, "")
	if code != http.StatusOK || len(all.Jobs) != 3 || all.NextAfter != "" {
		t.Fatalf("full list: code %d page %+v", code, all)
	}
	for i, j := range all.Jobs {
		if j.ID != ids[i] {
			t.Fatalf("list order: got %s at %d, want %s", j.ID, i, ids[i])
		}
	}

	first, _ := f.listPage(t, "?limit=2")
	if len(first.Jobs) != 2 || first.NextAfter != ids[1] {
		t.Fatalf("page 1: %+v", first)
	}
	rest, _ := f.listPage(t, "?limit=2&after="+first.NextAfter)
	if len(rest.Jobs) != 1 || rest.Jobs[0].ID != ids[2] || rest.NextAfter != "" {
		t.Fatalf("page 2: %+v", rest)
	}

	queued, _ := f.listPage(t, "?state=queued")
	if len(queued.Jobs) != 2 {
		t.Fatalf("queued filter: %+v", queued)
	}
	canceled, _ := f.listPage(t, "?state=canceled")
	if len(canceled.Jobs) != 1 || canceled.Jobs[0].ID != ids[1] {
		t.Fatalf("canceled filter: %+v", canceled)
	}
	if _, code := f.listPage(t, "?state=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus state: code %d, want 400", code)
	}
	if _, code := f.listPage(t, "?limit=zero"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: code %d, want 400", code)
	}
}

// TestErrorEnvelopeShape pins the typed error contract: code + field +
// message for a validation reject.
func TestErrorEnvelopeShape(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	resp, err := http.Post(f.ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"nodeCounts":[2],"iterations":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body.Error.Code != codeInvalidArgument || body.Error.Field != "nodeCounts" || body.Error.Message == "" {
		t.Fatalf("envelope %+v", body)
	}
	// Unknown-field rejects name the typoed field.
	resp, err = http.Post(f.ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"nodeCount":[8],"iterations":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body = errorBody{}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if body.Error.Field != "nodeCount" {
		t.Fatalf("unknown-field envelope: %+v", body)
	}
}
