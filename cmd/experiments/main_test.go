package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunUnknownPanel(t *testing.T) {
	if err := run([]string{"-panel", "fig9z"}); err == nil {
		t.Error("unknown panel accepted")
	}
}

func TestRunSinglePanelTinyIters(t *testing.T) {
	if err := run([]string{"-panel", "fig1a", "-iters", "1"}); err != nil {
		t.Fatalf("fig1a: %v", err)
	}
}

func TestRunCSVMode(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-panel", "fig1a", "-iters", "1", "-out", "csv"})
	})
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	// The panel streams its 8 cells through the matrix CSV sink.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 9 || !strings.HasPrefix(lines[0], "index,") || !strings.Contains(lines[8], ",flocklab,") {
		t.Errorf("fig1a -out csv = %q, want the matrix header and 8 flocklab rows", lines)
	}
}

func TestRunGainsPanel(t *testing.T) {
	if err := run([]string{"-panel", "gains", "-iters", "1"}); err != nil {
		t.Fatalf("gains: %v", err)
	}
}

func TestRunBaselinePanel(t *testing.T) {
	if err := run([]string{"-panel", "baseline", "-iters", "1"}); err != nil {
		t.Fatalf("baseline: %v", err)
	}
}

func TestRunScalabilityPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability sweep bootstraps four network sizes")
	}
	if err := run([]string{"-panel", "scalability", "-iters", "1"}); err != nil {
		t.Fatalf("scalability: %v", err)
	}
}

func TestRunCoveragePanel(t *testing.T) {
	if err := run([]string{"-panel", "coverage", "-iters", "1"}); err != nil {
		t.Fatalf("coverage: %v", err)
	}
}

func TestRunCSVSinglePanelDCube(t *testing.T) {
	if testing.Short() {
		t.Skip("dcube sweep")
	}
	if err := run([]string{"-panel", "fig1c", "-iters", "1", "-out", "csv"}); err != nil {
		t.Fatalf("fig1c csv: %v", err)
	}
}

// TestPanelTablesGolden pins every paper panel byte for byte: the golden is
// the stdout of `experiments -panel all -iters 2 -seed 1`. A change that
// moves any panel number (a cell seed derived instead of pinned, a changed
// loss default) fails it.
func TestPanelTablesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "panels_all_iters2_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := captureStdout(t, func() error {
		return run([]string{"-panel", "all", "-iters", "2", "-seed", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("panel tables differ from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestVerifiableMatrixGolden pins a small Feldman-verifiable matrix byte
// for byte: the golden is the JSONL of `experiments -panel matrix -nodes
// 12,20 -loss 0.1,0.3 -phy logdist,unitdisk -veclen 0,4 -verifiable true
// -fail 0,0.1 -iters 4 -seed 1 -out jsonl`, recorded when every share was
// verified on its own, so a change to how shares are checked cannot move
// a row.
func TestVerifiableMatrixGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "matrix_verifiable_iters4_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := captureStdout(t, func() error {
		return run([]string{"-panel", "matrix", "-nodes", "12,20", "-loss", "0.1,0.3", "-phy", "logdist,unitdisk",
			"-veclen", "0,4", "-verifiable", "true", "-fail", "0,0.1", "-iters", "4", "-seed", "1", "-out", "jsonl"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("verifiable matrix differs from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("flag parse error not propagated")
	}
}

func TestRunMatrixPanel(t *testing.T) {
	if err := run([]string{"-panel", "matrix", "-nodes", "8", "-loss", "0.0", "-iters", "1"}); err != nil {
		t.Fatalf("matrix: %v", err)
	}
}

func TestRunMatrixOutputFormats(t *testing.T) {
	for _, format := range []string{"table", "csv", "jsonl"} {
		args := []string{"-panel", "matrix", "-nodes", "8", "-loss", "0.0", "-iters", "1", "-out", format}
		if err := run(args); err != nil {
			t.Fatalf("-out %s: %v", format, err)
		}
	}
	if err := run([]string{"-panel", "matrix", "-nodes", "8", "-iters", "1", "-out", "xml"}); err == nil {
		t.Error("unknown -out format accepted")
	}
}

func TestRunMatrixNewAxes(t *testing.T) {
	err := run([]string{"-panel", "matrix", "-nodes", "10", "-loss", "0.0", "-iters", "1",
		"-ntx", "0,4", "-slack", "0,1", "-fail", "0,0.1", "-verifiable", "false,true"})
	if err != nil {
		t.Fatalf("axis flags: %v", err)
	}
}

func TestRunMatrixCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-panel", "matrix", "-nodes", "8", "-loss", "0.0", "-iters", "1",
		"-cache", dir, "-progress"}
	if err := run(args); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if err := run(args); err != nil {
		t.Fatalf("warm run: %v", err)
	}
}

func TestRunMatrixFlagsRejectedOnFixedPanels(t *testing.T) {
	for _, args := range [][]string{
		{"-panel", "fig1a", "-iters", "1", "-cache", "/tmp/x"},
		{"-panel", "coverage", "-iters", "1", "-out", "jsonl"},
		{"-panel", "fig1a", "-iters", "1", "-progress"},
		{"-panel", "fig1a", "-iters", "1", "-fail", "0.1"},
		{"-panel", "fig1a", "-iters", "1", "-verifiable", "true"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v: matrix-only flag accepted on a fixed panel", args)
		}
	}
}

func TestRunProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	err := run([]string{"-panel", "matrix", "-nodes", "8", "-loss", "0.0", "-iters", "1",
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
	// An unwritable CPU profile path is a startup error, not a crash.
	if err := run([]string{"-panel", "matrix", "-nodes", "8", "-iters", "1",
		"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "x.prof")}); err == nil {
		t.Fatal("unwritable -cpuprofile accepted")
	}
}

func TestRunShardedMatrixAndMerge(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-panel", "matrix", "-nodes", "8,10", "-loss", "0.0", "-iters", "1", "-cache", dir}
	// Merging before any shard ran is an informative failure, not a panic.
	mergeArgs := []string{"merge", "-nodes", "8,10", "-loss", "0.0", "-iters", "1",
		"-cache", dir, "-shards", "2", "-out", "jsonl"}
	if err := run(mergeArgs); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("premature merge: err = %v, want missing-cells error", err)
	}
	for shard := 0; shard < 2; shard++ {
		if err := run(append(base, "-shard", fmt.Sprintf("%d/2", shard))); err != nil {
			t.Fatalf("shard %d/2: %v", shard, err)
		}
	}
	if err := run(mergeArgs); err != nil {
		t.Fatalf("merge: %v", err)
	}
	// The merge left the matrix manifest: the unsharded rerun is served whole.
	if err := run(append(base, "-progress")); err != nil {
		t.Fatalf("post-merge unsharded run: %v", err)
	}
}

func TestRunShardWithStealRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-panel", "matrix", "-nodes", "8,10", "-loss", "0.0", "-iters", "1",
		"-cache", dir, "-shard", "0/2", "-steal"}); err != nil {
		t.Fatalf("stealing shard: %v", err)
	}
	// The thief filled the whole cache: a shardless merge assembles it.
	if err := run([]string{"merge", "-nodes", "8,10", "-loss", "0.0", "-iters", "1", "-cache", dir}); err != nil {
		t.Fatalf("merge after steal: %v", err)
	}
}

func TestRunShardFlagValidation(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-panel", "matrix", "-nodes", "8", "-iters", "1", "-shard", "3"},             // not i/N
		{"-panel", "matrix", "-nodes", "8", "-iters", "1", "-shard", "2/2"},           // out of range
		{"-panel", "matrix", "-nodes", "8", "-iters", "1", "-shard", "x/2"},           // non-numeric
		{"-panel", "matrix", "-nodes", "8", "-iters", "1", "-shard", "0/0"},           // zero shards
		{"-panel", "matrix", "-nodes", "8", "-iters", "1", "-steal"},                  // steal without shard
		{"-panel", "matrix", "-nodes", "8", "-iters", "1", "-shard", "0/2", "-steal"}, // steal without cache
		{"-panel", "fig1a", "-iters", "1", "-shard", "0/2"},                           // sharding a fixed panel
		{"merge", "-nodes", "8", "-iters", "1"},                                       // merge without cache
		{"merge", "-nodes", "8", "-iters", "1", "-cache", dir, "-shards", "-1"},       // negative shard count
		{"merge", "-nodes", "8", "-iters", "1", "-cache", dir, "-shard", "0/2"},       // run-only flag on merge
		{"merge", "-nodes", "8", "-iters", "1", "-cache", dir, "-steal"},              // run-only flag on merge
		{"merge", "-nodes", "8", "-iters", "1", "-cache", dir, "-panel", "matrix"},    // panel on merge
		{"merge", "-nodes", "8", "-iters", "1", "-cache", dir, "-workers", "2"},       // run-only flag on merge
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
