package experiment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iotmpc/internal/core"
)

// jsonlOf renders results exactly as JSONLSink streams them, so byte-level
// comparisons between sharded, merged, and unsharded output are possible.
func jsonlOf(t *testing.T, results []ScenarioResult) []byte {
	t.Helper()
	var b strings.Builder
	sink := &JSONLSink{W: &b}
	for _, r := range results {
		if err := sink.OnResult(r); err != nil {
			t.Fatal(err)
		}
	}
	return []byte(b.String())
}

func TestPartitionContiguousWithRemainder(t *testing.T) {
	for _, tc := range []struct{ n, total int }{
		{0, 1}, {0, 3}, {1, 1}, {1, 4}, {4, 3}, {5, 3}, {8, 3},
		{10, 4}, {7, 7}, {3, 5}, {64, 7}, {100, 1},
	} {
		base, rem := tc.n/tc.total, tc.n%tc.total
		prev := 0
		for shard := 0; shard < tc.total; shard++ {
			lo, hi := Partition(tc.n, shard, tc.total)
			if lo != prev {
				t.Fatalf("n=%d total=%d shard %d: range starts at %d, want %d (contiguity)",
					tc.n, tc.total, shard, lo, prev)
			}
			want := base
			if shard < rem {
				want++ // remainder cells go to the lowest-numbered shards
			}
			if hi-lo != want {
				t.Fatalf("n=%d total=%d shard %d: size %d, want %d", tc.n, tc.total, shard, hi-lo, want)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d total=%d: shards cover [0,%d), want [0,%d)", tc.n, tc.total, prev, tc.n)
		}
	}
}

func TestPartitionPanicsOnInvalidSpec(t *testing.T) {
	for _, bad := range [][3]int{{4, -1, 3}, {4, 3, 3}, {4, 0, 0}, {-1, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Partition(%d, %d, %d) did not panic", bad[0], bad[1], bad[2])
				}
			}()
			Partition(bad[0], bad[1], bad[2])
		}()
	}
}

func TestShardSpecValidate(t *testing.T) {
	for _, ok := range []ShardSpec{{0, 1, false}, {0, 3, true}, {2, 3, false}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	for _, bad := range []ShardSpec{{0, 0, false}, {0, -1, false}, {-1, 3, false}, {3, 3, false}} {
		if err := bad.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%+v: err = %v, want ErrBadSpec", bad, err)
		}
	}
	// The Runner validates the spec too: a bad WithShard is a run error,
	// not a panic.
	if _, err := NewRunner(WithShard(ShardSpec{Shard: 5, Total: 3})).Run(runnerMatrix()); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("runner accepted an invalid shard spec: %v", err)
	}
}

// TestShardedSweepByteIdenticalToUnsharded is the headline contract: for ANY
// shard count, the concatenated shard streams AND the merged sweep are
// byte-identical to a single unsharded run, and the merge leaves the exact
// matrix manifest an unsharded run would have written.
func TestShardedSweepByteIdenticalToUnsharded(t *testing.T) {
	m := runnerMatrix()
	baseline, err := NewRunner().Run(m)
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	n := len(scenarios)
	golden := jsonlOf(t, baseline)

	for _, total := range []int{1, 2, 3, n} {
		dir := t.TempDir()
		var concat []ScenarioResult
		var concatJSONL []byte
		for shard := 0; shard < total; shard++ {
			sink := &recordingSink{}
			got, err := NewRunner(WithCache(dir),
				WithShard(ShardSpec{Shard: shard, Total: total}),
				WithSinks(sink)).Run(m)
			if err != nil {
				t.Fatalf("total=%d shard=%d: %v", total, shard, err)
			}
			lo, hi := Partition(n, shard, total)
			if len(got) != hi-lo {
				t.Fatalf("total=%d shard=%d: returned %d cells, own range is %d", total, shard, len(got), hi-lo)
			}
			if !reflect.DeepEqual(sink.results, got) {
				t.Fatalf("total=%d shard=%d: sink stream diverged from returned results", total, shard)
			}
			for i, r := range got {
				if r.Scenario.Index != lo+i {
					t.Fatalf("total=%d shard=%d: emission %d carries index %d, want %d",
						total, shard, i, r.Scenario.Index, lo+i)
				}
			}
			if sink.summary.Cells != hi-lo || sink.summary.Computed != hi-lo {
				t.Fatalf("total=%d shard=%d: cold summary %+v", total, shard, sink.summary)
			}
			concat = append(concat, got...)
			concatJSONL = append(concatJSONL, jsonlOf(t, got)...)
		}
		if !reflect.DeepEqual(stripCached(concat), baseline) {
			t.Fatalf("total=%d: concatenated shard results differ from unsharded run", total)
		}
		if !bytes.Equal(concatJSONL, golden) {
			t.Fatalf("total=%d: concatenated shard JSONL differs from unsharded JSONL", total)
		}

		merged, err := MergeShards(dir, scenarios, total)
		if err != nil {
			t.Fatalf("total=%d: merge: %v", total, err)
		}
		if !reflect.DeepEqual(stripCached(merged), baseline) {
			t.Fatalf("total=%d: merged results differ from unsharded run", total)
		}
		if !bytes.Equal(jsonlOf(t, merged), golden) {
			t.Fatalf("total=%d: merged JSONL differs from unsharded JSONL", total)
		}
		for _, r := range merged {
			if !r.Cached {
				t.Fatalf("total=%d: merged cell %d not flagged cached", total, r.Scenario.Index)
			}
		}

		// The merge wrote the same matrix manifest a single run writes: an
		// unsharded rerun against this cache is a one-open manifest hit.
		warm := &recordingSink{}
		again, err := NewRunner(WithCache(dir), WithSinks(warm)).Run(m)
		if err != nil {
			t.Fatalf("total=%d: rerun: %v", total, err)
		}
		if !warm.plan.ManifestHit || warm.summary.Computed != 0 {
			t.Fatalf("total=%d: merged manifest not hit by unsharded rerun: plan %+v summary %+v",
				total, warm.plan, warm.summary)
		}
		if !reflect.DeepEqual(stripCached(again), baseline) {
			t.Fatalf("total=%d: manifest-served rerun diverged", total)
		}
	}
}

func TestShardManifestRerunFastPath(t *testing.T) {
	dir := t.TempDir()
	m := runnerMatrix()
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	spec := ShardSpec{Shard: 1, Total: 3}
	first, err := NewRunner(WithCache(dir), WithShard(spec)).Run(m)
	if err != nil {
		t.Fatal(err)
	}

	// A completed shard's rerun is served from its own manifest.
	warm := &recordingSink{}
	second, err := NewRunner(WithCache(dir), WithShard(spec), WithSinks(warm)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.plan.ManifestHit || warm.summary.Computed != 0 || warm.summary.Resumed != 0 {
		t.Fatalf("shard rerun: plan %+v summary %+v", warm.plan, warm.summary)
	}
	if !reflect.DeepEqual(first, stripCached(second)) {
		t.Fatal("shard-manifest-served results differ from computed results")
	}

	// The shard manifest alone carries the range: delete every per-cell
	// entry and the rerun must still compute nothing.
	keys, err := scenarioKeys(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := Partition(len(scenarios), spec.Shard, spec.Total)
	for i := lo; i < hi; i++ {
		if err := os.Remove(filepath.Join(dir, keys[i]+".json")); err != nil {
			t.Fatal(err)
		}
	}
	bare := &recordingSink{}
	third, err := NewRunner(WithCache(dir), WithShard(spec), WithSinks(bare)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bare.plan.ManifestHit || bare.summary.Computed != 0 {
		t.Fatalf("cell-less shard rerun: plan %+v summary %+v", bare.plan, bare.summary)
	}
	if !reflect.DeepEqual(first, stripCached(third)) {
		t.Fatal("cell-less shard rerun diverged")
	}

	// A different slicing of the same matrix must not reuse this manifest.
	other := &recordingSink{}
	if _, err := NewRunner(WithCache(dir),
		WithShard(ShardSpec{Shard: 1, Total: 2}), WithSinks(other)).Run(m); err != nil {
		t.Fatal(err)
	}
	if other.plan.ManifestHit {
		t.Fatalf("shard 1/2 reused shard 1/3's manifest: plan %+v", other.plan)
	}
}

// cancelAfterSink cancels the run's context after a fixed number of
// emissions — a deterministic stand-in for kill -9 mid-sweep.
type cancelAfterSink struct {
	recordingSink
	cancel context.CancelFunc
	after  int
}

func (c *cancelAfterSink) OnResult(r ScenarioResult) error {
	if err := c.recordingSink.OnResult(r); err != nil {
		return err
	}
	if len(c.results) == c.after {
		c.cancel()
	}
	return nil
}

// cacheEntryCount counts per-cell entries in dir (there is no manifest
// after an interrupted run, so every .json file is a cell).
func cacheEntryCount(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}

// TestShardKilledMidSweepResumes is the crash-safety acceptance test: a
// shard interrupted mid-range leaves its finished cells in the cache and no
// shard manifest; the rerun computes ONLY the missing cells and reports the
// inherited ones as Resumed.
func TestShardKilledMidSweepResumes(t *testing.T) {
	dir := t.TempDir()
	// Six cells so shard 0/2 owns three: with one worker and a cancel at the
	// first emission, at most two own cells can already be in flight and the
	// third is guaranteed to be skipped — the run reliably dies mid-range.
	m := Matrix{
		NodeCounts: []int{10, 12, 14},
		LossRates:  []float64{0.1, 0.3},
		Protocols:  []core.Protocol{core.S4},
		Iterations: 2,
		Seed:       7,
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	n := len(scenarios)
	spec := ShardSpec{Shard: 0, Total: 2}
	lo, hi := Partition(n, spec.Shard, spec.Total)
	own := hi - lo

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := &cancelAfterSink{cancel: cancel, after: 1}
	_, err = NewRunner(WithContext(ctx), WithCache(dir), WithShard(spec),
		WithWorkers(1), WithSinks(killed)).Run(m)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	// Whatever finished before the kill is cached; nothing else is, and no
	// manifest was written.
	cached := cacheEntryCount(t, dir)
	if cached < 1 || cached >= own {
		t.Fatalf("interrupted run cached %d cells, want in [1,%d)", cached, own)
	}

	resumedRun := &recordingSink{}
	results, err := NewRunner(WithCache(dir), WithShard(spec), WithSinks(resumedRun)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := resumedRun.summary
	if sum.Computed != own-cached {
		t.Fatalf("resume computed %d cells, want only the %d missing ones", sum.Computed, own-cached)
	}
	if sum.Resumed != cached || sum.CacheHits != cached {
		t.Fatalf("resume summary %+v, want %d resumed", sum, cached)
	}

	// The resumed shard is indistinguishable from a never-killed one:
	// finish the other shard and the merge matches the unsharded run.
	if _, err := NewRunner(WithCache(dir), WithShard(ShardSpec{Shard: 1, Total: 2})).Run(m); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeShards(dir, scenarios, 2)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := NewRunner().Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripCached(merged), baseline) {
		t.Fatal("post-resume merge differs from unsharded run")
	}
	if !reflect.DeepEqual(stripCached(results), baseline[lo:hi]) {
		t.Fatal("resumed shard results differ from unsharded run")
	}
}

func TestShardWorkStealingCoversLaggingShards(t *testing.T) {
	dir := t.TempDir()
	m := runnerMatrix()
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	n := len(scenarios)
	lo, hi := Partition(n, 0, 2)
	own := hi - lo

	thief := &recordingSink{}
	got, err := NewRunner(WithCache(dir),
		WithShard(ShardSpec{Shard: 0, Total: 2, Steal: true}),
		WithSinks(thief)).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	// The thief computed the whole matrix but emitted only its own range.
	if thief.summary.Stolen != n-own {
		t.Fatalf("stole %d cells, want %d", thief.summary.Stolen, n-own)
	}
	if len(got) != own || len(thief.results) != own {
		t.Fatalf("thief emitted %d cells, want own range %d", len(thief.results), own)
	}

	// The victim shard finds all its cells pre-computed.
	victim := &recordingSink{}
	if _, err := NewRunner(WithCache(dir),
		WithShard(ShardSpec{Shard: 1, Total: 2}), WithSinks(victim)).Run(m); err != nil {
		t.Fatal(err)
	}
	if victim.summary.Computed != 0 || victim.summary.Resumed != n-own {
		t.Fatalf("victim summary %+v, want 0 computed / %d resumed", victim.summary, n-own)
	}

	merged, err := MergeShards(dir, scenarios, 2)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := NewRunner().Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripCached(merged), baseline) {
		t.Fatal("stolen-and-merged sweep differs from unsharded run")
	}
}

func TestMergeShardsIncompleteFails(t *testing.T) {
	dir := t.TempDir()
	m := runnerMatrix()
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(WithCache(dir), WithShard(ShardSpec{Shard: 0, Total: 3})).Run(m); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(dir, scenarios, 3); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("merge of an incomplete sweep: err = %v, want missing-cells error", err)
	}
	for shard := 1; shard < 3; shard++ {
		if _, err := NewRunner(WithCache(dir), WithShard(ShardSpec{Shard: shard, Total: 3})).Run(m); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeShards(dir, scenarios, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Merging is idempotent: the second call hits the matrix manifest the
	// first one wrote.
	again, err := MergeShards(dir, scenarios, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, again) {
		t.Fatal("repeated merge diverged")
	}
	// And a merge told nothing about the shard count still assembles from
	// the per-cell entries (drop the manifest the first merge wrote).
	keys, err := scenarioKeys(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, matrixManifestKey(keys)+".json")); err != nil {
		t.Fatal(err)
	}
	fromCells, err := MergeShards(dir, scenarios, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, fromCells) {
		t.Fatal("per-cell merge diverged from shard-manifest merge")
	}
}

func TestMergeShardsValidation(t *testing.T) {
	m := runnerMatrix()
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards("", scenarios, 2); err == nil {
		t.Fatal("merge accepted an empty cache directory")
	}
	if _, err := MergeShards(t.TempDir(), scenarios, 2); err == nil {
		t.Fatal("merge of an empty cache succeeded")
	}
}

// TestShardSpecRange: Range is Partition over the normalized spec — the
// zero value owns the whole index space.
func TestShardSpecRange(t *testing.T) {
	if lo, hi := (ShardSpec{}).Range(7); lo != 0 || hi != 7 {
		t.Fatalf("zero spec range [%d,%d), want [0,7)", lo, hi)
	}
	for shard := 0; shard < 3; shard++ {
		wantLo, wantHi := Partition(10, shard, 3)
		lo, hi := ShardSpec{Shard: shard, Total: 3}.Range(10)
		if lo != wantLo || hi != wantHi {
			t.Errorf("shard %d/3 range [%d,%d), want [%d,%d)", shard, lo, hi, wantLo, wantHi)
		}
	}
}
