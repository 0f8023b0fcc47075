package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// Tests for held idle heartbeats: an idle worker's heartbeat is a long poll
// answered as soon as there is work, and a busy worker's heartbeat is never
// held. They run under -race -count=20 in CI, so every timing bound below
// leaves room for a loaded machine while still failing a coordinator that
// waits out a hold bound or a worker that waits out its ticker.

// heartbeatIdleRaw sends a heartbeat reporting an empty running set, which
// the coordinator holds until it has work. Safe to call off the test
// goroutine.
func heartbeatIdleRaw(ctx context.Context, baseURL, id string) ([]shardGrant, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/workers/%s/heartbeat", baseURL, id), strings.NewReader(`{"running":[]}`))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var hb heartbeatResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
			return nil, resp.StatusCode, err
		}
	}
	return hb.Grants, resp.StatusCode, nil
}

// longLease gives the coordinator a 30s lease, so a held heartbeat waits up
// to 10s: anything these tests see within a second was not the bound.
func longLease(c *Config) { c.LeaseTTL = 30 * time.Second }

// waitWorkers waits until n workers are registered.
func waitWorkers(t *testing.T, f *fixture, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(getHealthz(t, f).Workers) == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%d workers never registered", n)
}

// TestHeldHeartbeatGrantsWithoutTick: a worker on a 10s heartbeat finishes
// a 1-cell job within 2s of its submission — the grant answers the held
// idle heartbeat instead of waiting for a tick. The second job checks the
// immediate re-poll after an acknowledged completion.
func TestHeldHeartbeatGrantsWithoutTick(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), longLease)
	runWorker(t, WorkerConfig{
		Coordinator:    f.ts.URL,
		Name:           "slow-ticker",
		CacheDir:       t.TempDir(),
		HeartbeatEvery: 10 * time.Second,
	})
	waitWorkers(t, f, 1)
	for seed := int64(1); seed <= 2; seed++ {
		m := experiment.Matrix{
			NodeCounts: []int{8},
			LossRates:  []float64{0},
			Protocols:  []core.Protocol{core.S4},
			Iterations: 1,
			Seed:       seed,
		}
		start := time.Now()
		job := f.submit(t, m)
		for f.job(t, job.ID).State != store.Done {
			if time.Since(start) > 2*time.Second {
				t.Fatalf("job %d not done %v after submit: %+v", seed, time.Since(start), f.job(t, job.ID))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestHeldHeartbeatReleasedOnClose: Server.Close answers a held heartbeat
// at once, with an empty grant list, instead of after the hold bound.
func TestHeldHeartbeatReleasedOnClose(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), longLease)
	w := registerRaw(t, f.ts.URL, "idle")
	type answer struct {
		grants []shardGrant
		status int
		err    error
		at     time.Time
	}
	answered := make(chan answer, 1)
	go func() {
		grants, status, err := heartbeatIdleRaw(context.Background(), f.ts.URL, w.ID)
		answered <- answer{grants, status, err, time.Now()}
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case a := <-answered:
		t.Fatalf("idle heartbeat answered without work: %+v", a)
	default:
	}
	start := time.Now()
	f.svc.Close()
	select {
	case a := <-answered:
		if a.err != nil || a.status != http.StatusOK || len(a.grants) != 0 {
			t.Fatalf("held heartbeat on Close: %+v", a)
		}
		if d := a.at.Sub(start); d > time.Second {
			t.Fatalf("held heartbeat answered %v after Close", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held heartbeat outlived Close")
	}
}

// TestHeldHeartbeatReleasedOnClientCancel: a worker abandoning its held
// heartbeat frees the handler at once. httptest's Close waits for every
// outstanding request, so it returns only after the handler does.
func TestHeldHeartbeatReleasedOnClientCancel(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), longLease)
	w := registerRaw(t, f.ts.URL, "leaver")
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan error, 1)
	go func() {
		_, _, err := heartbeatIdleRaw(ctx, f.ts.URL, w.ID)
		returned <- err
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-returned:
		t.Fatalf("idle heartbeat answered without work (err %v)", err)
	default:
	}
	cancel()
	if err := <-returned; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled heartbeat: %v", err)
	}
	start := time.Now()
	f.ts.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("handler of a canceled heartbeat ran %v past the cancel", d)
	}
}

// TestIdleWorkerHeldAcrossBounds: an idle worker that keeps a heartbeat
// open across several hold bounds — several lease TTLs in all — is held
// each time and never loses its lease.
func TestIdleWorkerHeldAcrossBounds(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), nil)
	bound := f.svc.disp.holdBound()
	w := registerRaw(t, f.ts.URL, "idler")
	end := time.Now().Add(4 * f.svc.disp.leaseTTL)
	polls := 0
	for time.Now().Before(end) {
		start := time.Now()
		grants, status, err := heartbeatIdleRaw(context.Background(), f.ts.URL, w.ID)
		held := time.Since(start)
		if err != nil || status != http.StatusOK || len(grants) != 0 {
			t.Fatalf("poll %d: status %d grants %v err %v", polls, status, grants, err)
		}
		if held < bound/2 || held > bound+time.Second {
			t.Fatalf("poll %d held %v, want about the %v bound", polls, held, bound)
		}
		polls++
	}
	if polls < 4 {
		t.Fatalf("only %d polls across %v", polls, 4*f.svc.disp.leaseTTL)
	}
	if h := getHealthz(t, f); len(h.Workers) != 1 || h.Workers[0].ID != w.ID {
		t.Fatalf("registry after %d held polls: %+v", polls, h.Workers)
	}
}

// TestCancelReachesBusyWorker: canceling a job while its worker is
// mid-shard cancels the worker's execution within about one heartbeat
// interval. A busy worker's heartbeat is never held, even when its grant
// list has just become empty; holding it would delay the cancel by the
// hold bound (3s here).
func TestCancelReachesBusyWorker(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), func(c *Config) { c.LeaseTTL = 9 * time.Second })
	w, _ := runWorker(t, WorkerConfig{
		Coordinator:    f.ts.URL,
		Name:           "busy",
		CacheDir:       t.TempDir(),
		Workers:        1,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	waitWorkers(t, f, 1)
	m := experiment.Matrix{
		NodeCounts: []int{30},
		LossRates:  []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
		Iterations: 128,
		Seed:       3,
	}
	job := f.submit(t, m)
	deadline := time.Now().Add(30 * time.Second)
	for {
		j := f.job(t, job.ID)
		if j.State == store.Running && j.Completed >= 1 {
			break
		}
		if j.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never ran mid-shard: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var ex *shardExec
	w.mu.Lock()
	for _, e := range w.execs {
		ex = e
	}
	w.mu.Unlock()
	if ex == nil {
		t.Fatal("worker has no execution mid-shard")
	}
	start := time.Now()
	resp := f.del(t, job.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", resp.StatusCode)
	}
	for {
		w.mu.Lock()
		n := len(w.execs)
		w.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Since(start) > time.Second {
			t.Fatalf("execution still running %v after the cancel", time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-ex.done // the Runner has returned; the cache directory is quiet
	if j := f.job(t, job.ID); j.State != store.Canceled {
		t.Fatalf("job after cancel: %+v", j)
	}
}

// TestBackoffWakesHeldHeartbeat: a shard that scan re-queues with a future
// NextEligible is granted to a held idle worker when it becomes eligible,
// not when the hold bound (1s here) runs out. The hold starts before the
// re-queue, so it also needs the re-queue to wake it.
func TestBackoffWakesHeldHeartbeat(t *testing.T) {
	f := newCoordFixture(t, t.TempDir(), t.TempDir(), func(c *Config) {
		c.LeaseTTL = 3 * time.Second
		c.ShardBackoffBase = 200 * time.Millisecond
		c.ShardBackoffMax = 200 * time.Millisecond
	})
	job := f.submit(t, testMatrix())
	victim := registerRaw(t, f.ts.URL, "victim")
	g := waitGrant(t, f.ts.URL, victim.ID)
	expiry := time.Now().Add(3 * time.Second)
	holder := registerRaw(t, f.ts.URL, "holder")
	// Plain heartbeats keep the holder's lease until just before the
	// victim's runs out; then the holder goes idle and is held.
	for {
		left := time.Until(expiry) - 150*time.Millisecond
		if left <= 0 {
			break
		}
		if grants, status := heartbeatRaw(t, f.ts.URL, holder.ID); status != http.StatusOK || len(grants) > 0 {
			t.Fatalf("holder heartbeat before expiry: status %d grants %v", status, grants)
		}
		time.Sleep(min(left, 100*time.Millisecond))
	}
	grants, status, err := heartbeatIdleRaw(context.Background(), f.ts.URL, holder.ID)
	at := time.Now()
	if err != nil || status != http.StatusOK || len(grants) != 1 {
		t.Fatalf("held heartbeat: status %d grants %v err %v", status, grants, err)
	}
	if grants[0].Job != job.ID || grants[0].Shard != g.Shard || grants[0].Attempt != 2 {
		t.Fatalf("re-grant %+v, want attempt 2 of shard %d of %s", grants[0], g.Shard, job.ID)
	}
	assigns, _ := f.st.Assignments(job.ID)
	eligible := time.UnixMilli(assigns[g.Shard].NextEligible)
	if late := at.Sub(eligible); late < 0 || late > 400*time.Millisecond {
		t.Fatalf("re-grant arrived %v after the shard became eligible, want within timer slack", late)
	}
}

// failingAssigns is a store whose assignment writes fail once fail is set.
type failingAssigns struct {
	*store.Store
	fail atomic.Bool
}

func (s *failingAssigns) SetAssignments(id string, assigns []store.ShardAssignment, sync bool) error {
	if s.fail.Load() {
		return errors.New("injected assignment write failure")
	}
	return s.Store.SetAssignments(id, assigns, sync)
}

// newFailingCoordFixture is newCoordFixture with the dispatcher writing
// assignments through a failingAssigns.
func newFailingCoordFixture(t *testing.T) (*fixture, *failingAssigns) {
	t.Helper()
	st := openStoreT(t, t.TempDir())
	svc, err := New(coordCfg(st, t.TempDir()))
	if err != nil {
		st.Close()
		t.Fatalf("service: %v", err)
	}
	fs := &failingAssigns{Store: st}
	svc.disp.store = fs
	f := &fixture{st: st, svc: svc}
	f.ts = httptest.NewServer(svc.Handler())
	svc.Start()
	t.Cleanup(func() {
		f.ts.Close()
		f.svc.Close()
		f.st.Close()
	})
	return f, fs
}

// waitStopped waits for the scheduler to stop itself.
func waitStopped(t *testing.T, s *Server) {
	t.Helper()
	select {
	case <-s.ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("scheduler kept running after a failed assignment write")
	}
}

// TestWithdrawStoreFailureStopsScheduler: when canceling a dispatched job
// cannot persist its withdrawn assignments, the scheduler stops instead of
// recording the job as canceled.
func TestWithdrawStoreFailureStopsScheduler(t *testing.T) {
	f, fs := newFailingCoordFixture(t)
	job := f.submit(t, testMatrix())
	w := registerRaw(t, f.ts.URL, "holder")
	waitGrant(t, f.ts.URL, w.ID)
	fs.fail.Store(true)
	resp := f.del(t, job.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", resp.StatusCode)
	}
	waitStopped(t, f.svc)
	if j, _ := f.st.Job(job.ID); j.State != store.Running {
		t.Fatalf("job recorded %s over an unpersisted withdrawal: %+v", j.State, j)
	}
}

// TestScanStoreFailureStopsScheduler: when the lease scan cannot persist a
// re-queue, the scheduler stops.
func TestScanStoreFailureStopsScheduler(t *testing.T) {
	f, fs := newFailingCoordFixture(t)
	f.submit(t, testMatrix())
	w := registerRaw(t, f.ts.URL, "deserter")
	waitGrant(t, f.ts.URL, w.ID)
	fs.fail.Store(true)
	// No more heartbeats: the lease expires and scan re-queues the shard.
	waitStopped(t, f.svc)
}
