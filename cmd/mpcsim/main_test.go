package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte)
	go func() {
		buf, _ := io.ReadAll(r)
		done <- buf
	}()
	runErr := fn()
	w.Close()
	return <-done, runErr
}

func TestPickTestbed(t *testing.T) {
	tests := []struct {
		name    string
		nodes   int
		wantErr bool
	}{
		{"flocklab", 26, false},
		{"FLOCKLAB", 26, false},
		{"dcube", 45, false},
		{"grid", 20, false},
		{"line", 10, false},
		{"mars", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			top, err := pickTestbed(tt.name)
			if tt.wantErr {
				if err == nil {
					t.Error("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if top.NumNodes() != tt.nodes {
				t.Errorf("nodes = %d, want %d", top.NumNodes(), tt.nodes)
			}
		})
	}
}

func TestPickProtocol(t *testing.T) {
	if p, err := pickProtocol("S3"); err != nil || p.String() != "S3" {
		t.Errorf("S3: %v %v", p, err)
	}
	if p, err := pickProtocol("s4"); err != nil || p.String() != "S4" {
		t.Errorf("s4: %v %v", p, err)
	}
	if _, err := pickProtocol("s5"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestRunSmallConfiguration(t *testing.T) {
	err := run([]string{"-testbed", "grid", "-protocol", "s4", "-sources", "8",
		"-degree", "3", "-iters", "2"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-testbed", "nope"},
		{"-protocol", "nope"},
		{"-sources", "999"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("flag parse error not propagated")
	}
}

func TestRunHEProtocol(t *testing.T) {
	if err := run([]string{"-testbed", "grid", "-protocol", "he", "-sources", "6", "-iters", "1"}); err != nil {
		t.Fatalf("he: %v", err)
	}
}

// TestRunHEWorkersDeterministic: HE trials fan across the worker pool, and
// stdout, the per-trial -v lines included, must not depend on how many
// workers ran them.
func TestRunHEWorkersDeterministic(t *testing.T) {
	args := []string{"-testbed", "grid", "-protocol", "he", "-sources", "6", "-iters", "6", "-v"}
	serial, err := captureStdout(t, func() error { return run(append(args, "-workers", "1")) })
	if err != nil {
		t.Fatalf("-workers 1: %v", err)
	}
	if !bytes.Contains(serial, []byte("iter   5:")) {
		t.Fatalf("-v output lacks the last trial:\n%s", serial)
	}
	for _, workers := range []string{"0", "3"} {
		got, err := captureStdout(t, func() error { return run(append(args, "-workers", workers)) })
		if err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		if !bytes.Equal(got, serial) {
			t.Fatalf("-workers %s output differs from -workers 1:\n%s\nwant:\n%s", workers, got, serial)
		}
	}
}

func TestRunTraceMode(t *testing.T) {
	err := run([]string{"-testbed", "grid", "-protocol", "s4", "-sources", "8",
		"-degree", "3", "-iters", "1", "-trace"})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
}

func TestRunCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-testbed", "grid", "-protocol", "s4", "-sources", "8",
		"-degree", "3", "-iters", "2", "-cache", dir, "-progress"}
	if err := run(args); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if err := run(args); err != nil {
		t.Fatalf("warm run: %v", err)
	}
}

func TestRunOutputFormats(t *testing.T) {
	for _, format := range []string{"csv", "jsonl"} {
		args := []string{"-testbed", "grid", "-protocol", "s4", "-sources", "8",
			"-degree", "3", "-iters", "1", "-out", format}
		if err := run(args); err != nil {
			t.Fatalf("-out %s: %v", format, err)
		}
	}
	if err := run([]string{"-testbed", "grid", "-iters", "1", "-out", "xml"}); err == nil {
		t.Error("unknown -out format accepted")
	}
}

func TestRunnerFlagsIncompatibleWithDebugPaths(t *testing.T) {
	for _, args := range [][]string{
		{"-testbed", "grid", "-iters", "1", "-v", "-cache", "/tmp/x"},
		{"-testbed", "grid", "-iters", "1", "-trace", "-out", "jsonl"},
		{"-testbed", "grid", "-protocol", "he", "-iters", "1", "-progress"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v: incompatible flag combination accepted", args)
		}
	}
}

func TestRunVerboseOutput(t *testing.T) {
	// Verbose mode exercises the per-iteration printing path.
	if err := run([]string{"-testbed", "line", "-protocol", "s3", "-sources", "4",
		"-degree", "2", "-iters", "1", "-v"}); err != nil {
		if !strings.Contains(err.Error(), "bootstrap") {
			t.Fatalf("run -v: %v", err)
		}
	}
}

func TestRunProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	err := run([]string{"-testbed", "grid", "-iters", "1",
		"-cpuprofile", cpu, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}
