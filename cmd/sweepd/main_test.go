package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"iotmpc/internal/store"
)

func TestRunRequiresDirs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no flags", nil, "-cache"},
		{"cache only", []string{"-cache", t.TempDir()}, "-store"},
		{"store only", []string{"-store", t.TempDir()}, "-cache"},
		{"bad flag", []string{"-bogus"}, "bogus"},
		{"join needs cache", []string{"-join", "http://coord:8080"}, "-cache"},
		{"join excludes coordinator",
			[]string{"-join", "http://coord:8080", "-cache", t.TempDir(), "-coordinator"},
			"mutually exclusive"},
		{"join excludes store",
			[]string{"-join", "http://coord:8080", "-cache", t.TempDir(), "-store", t.TempDir()},
			"worker keeps no store"},
		{"chaos needs join",
			[]string{"-cache", t.TempDir(), "-store", t.TempDir(), "-chaos", "hbdrop=0.5"},
			"-join"},
		{"bad chaos spec",
			[]string{"-join", "http://coord:8080", "-cache", t.TempDir(), "-chaos", "explode=1"},
			"chaos"},
		{"negative lease",
			[]string{"-cache", t.TempDir(), "-store", t.TempDir(), "-lease", "-1s"},
			"-lease"},
		{"negative max-attempts",
			[]string{"-cache", t.TempDir(), "-store", t.TempDir(), "-max-attempts", "-1"},
			"-max-attempts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v, want mention of %s", err, tc.want)
			}
		})
	}
}

func TestRunBadListenAddr(t *testing.T) {
	err := run([]string{"-cache", t.TempDir(), "-store", t.TempDir(), "-addr", "512.0.0.1:http"})
	if err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

func TestRunRejectsNegativeRetention(t *testing.T) {
	for _, extra := range [][]string{
		{"-retain-jobs", "-1"},
		{"-retain-age", "-1h"},
	} {
		args := append([]string{"-cache", t.TempDir(), "-store", t.TempDir()}, extra...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-retain") {
			t.Errorf("%v: err %v, want retention complaint", extra, err)
		}
	}
}

// TestBootGCPrunesTerminalJobs: a store seeded with two finished jobs boots
// under -retain-jobs 1 and comes up with only the newer one (visible via
// /v1/healthz and /v1/jobs), the pruned job's exclusive row swept.
func TestBootGCPrunesTerminalJobs(t *testing.T) {
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	storeDir := t.TempDir()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		job, err := st.CreateJob(json.RawMessage(`["seeded, not a matrix"]`), 1)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("row-%d", i)
		if err := st.SetJobKeys(job.ID, []string{key}); err != nil {
			t.Fatal(err)
		}
		if err := st.PutRow(key, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.UpdateJob(job.ID, true, func(j *store.Job) { j.State = store.Running }); err != nil {
			t.Fatal(err)
		}
		if _, err := st.UpdateJob(job.ID, true, func(j *store.Job) { j.State = store.Done }); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	runDone := make(chan error, 1)
	go func() {
		runDone <- run([]string{"-addr", addr, "-cache", t.TempDir(), "-store", storeDir,
			"-retain-jobs", "1"})
	}()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	var health struct {
		Jobs      map[string]int `json:"jobs"`
		StoreRows int            `json:"storeRows"`
	}
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never came up")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if health.Jobs["done"] != 1 || health.StoreRows != 1 {
		t.Errorf("after boot GC: %+v, want 1 done job and 1 row", health)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestRunServesAndDrainsOnSIGTERM boots the daemon on a free port, drives
// one job through the HTTP API, and checks SIGTERM drains it cleanly.
func TestRunServesAndDrainsOnSIGTERM(t *testing.T) {
	// Disarm the default SIGTERM death for this process before the daemon
	// goroutine races to register its own handler.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	// Find a free port; the tiny window between Close and the daemon's
	// Listen is acceptable in a test.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	runDone := make(chan error, 1)
	go func() {
		runDone <- run([]string{"-addr", addr, "-cache", t.TempDir(), "-store", t.TempDir()})
	}()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get(base + "/v1/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never came up")
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"nodeCounts":[8],"lossRates":[0.0],"iterations":1,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.State == "done" {
			break
		}
		if got.State == "failed" {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestCoordinatorDrainReleasesHeldHeartbeat: SIGTERM on a coordinator whose
// idle worker holds a long-poll heartbeat drains at once. The 15s default
// lease would hold that heartbeat for 5s; the drain must not wait it out.
func TestCoordinatorDrainReleasesHeldHeartbeat(t *testing.T) {
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	runDone := make(chan error, 1)
	go func() {
		runDone <- run([]string{"-coordinator", "-addr", addr, "-cache", t.TempDir(), "-store", t.TempDir()})
	}()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	var resp *http.Response
	for {
		resp, err = http.Post(base+"/v1/workers", "application/json", strings.NewReader(`{"name":"idle"}`))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never came up")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var worker struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&worker); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	answered := make(chan int, 1)
	go func() {
		resp, err := http.Post(fmt.Sprintf("%s/v1/workers/%s/heartbeat", base, worker.ID),
			"application/json", strings.NewReader(`{"running":[]}`))
		if err != nil {
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case status := <-answered:
		t.Fatalf("idle heartbeat answered without work: status %d", status)
	default:
	}

	start := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("drain took %v with a held heartbeat open", d)
	}
	if status := <-answered; status != http.StatusOK {
		t.Fatalf("held heartbeat on drain: status %d", status)
	}
}
