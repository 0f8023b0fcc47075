package cache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

type payload struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func TestKeyDistinguishesVersionAndPayload(t *testing.T) {
	base := Key("v1", []byte("scenario-a"))
	if base != Key("v1", []byte("scenario-a")) {
		t.Fatal("key not deterministic")
	}
	if base == Key("v2", []byte("scenario-a")) {
		t.Fatal("version bump did not change the key")
	}
	if base == Key("v1", []byte("scenario-b")) {
		t.Fatal("payload change did not change the key")
	}
	// The separator keeps (version, payload) boundaries unambiguous.
	if Key("ab", []byte("c")) == Key("a", []byte("bc")) {
		t.Fatal("version/payload boundary ambiguous")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", []byte("cell-0"))

	var out payload
	if hit, err := s.Get(key, &out); err != nil || hit {
		t.Fatalf("empty store: hit=%v err=%v", hit, err)
	}
	in := payload{Name: "cell-0", Value: 3.25}
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	hit, err := s.Get(key, &out)
	if err != nil || !hit {
		t.Fatalf("after put: hit=%v err=%v", hit, err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("len = %d, %v", n, err)
	}
}

func TestStoreOverwrite(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", []byte("cell"))
	if err := s.Put(key, payload{Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, payload{Value: 2}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if hit, _ := s.Get(key, &out); !hit || out.Value != 2 {
		t.Fatalf("overwrite: hit=%v out=%+v", hit, out)
	}
}

// TestGetRawAndSync: GetRaw returns the exact value bytes Put encoded, and
// Sync succeeds on a stored entry and reports a missing one.
func TestGetRawAndSync(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", []byte("cell"))
	if err := s.Put(key, json.RawMessage(`{"name":"x","value":3}`)); err != nil {
		t.Fatal(err)
	}
	raw, ok, err := s.GetRaw(key)
	if err != nil || !ok || string(raw) != `{"name":"x","value":3}` {
		t.Fatalf("GetRaw: %q ok=%v err=%v", raw, ok, err)
	}
	if err := s.Sync(key); err != nil {
		t.Fatalf("sync stored entry: %v", err)
	}
	if err := s.Sync(Key("v1", []byte("absent"))); err == nil {
		t.Fatal("sync of a missing entry succeeded")
	}
}

func TestStoreCorruptionIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", []byte("cell"))
	if err := s.Put(key, payload{Name: "x", Value: 9}); err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"truncated":       func(b []byte) []byte { return b[:len(b)/2] },
		"not json":        func(b []byte) []byte { return []byte("definitely not json") },
		"flipped payload": func(b []byte) []byte { return []byte(string(b[:len(b)-3]) + "1}}") },
	}
	for name, corrupt := range corruptions {
		raw, err := os.ReadFile(s.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Path(key), corrupt(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		hit, err := s.Get(key, &out)
		if err != nil {
			t.Fatalf("%s: corruption surfaced as error: %v", name, err)
		}
		if hit {
			t.Fatalf("%s: corrupted entry served as a hit", name)
		}
		// Restore via the normal write path for the next case.
		if err := s.Put(key, payload{Name: "x", Value: 9}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreWrongKeyFileIsAMiss(t *testing.T) {
	// An entry copied to another key's path (e.g. a botched manual restore)
	// must not be served under the new key.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keyA := Key("v1", []byte("a"))
	keyB := Key("v1", []byte("b"))
	if err := s.Put(keyA, payload{Value: 1}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.Path(keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(keyB), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if hit, _ := s.Get(keyB, &out); hit {
		t.Fatal("entry served under a key it was not stored for")
	}
}

func TestOpenRejectsEmptyAndCreatesNested(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
	dir := filepath.Join(t.TempDir(), "a", "b")
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("nested dir not created: %v", err)
	}
}

func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", []byte("survivor"))
	if err := s.Put(key, payload{Value: 1}); err != nil {
		t.Fatal(err)
	}

	// A temp file orphaned by a crashed writer, aged past the threshold.
	stale := filepath.Join(dir, "deadbeef.tmp-1234")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	// A fresh temp file — a LIVE concurrent writer between CreateTemp and
	// Rename — must survive the sweep.
	fresh := filepath.Join(dir, "cafef00d.tmp-5678")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived Open (stat err = %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp removed — Open raced a live writer: %v", err)
	}
	// Real entries are untouched.
	var out payload
	if hit, err := s.Get(key, &out); err != nil || !hit || out.Value != 1 {
		t.Fatalf("entry damaged by sweep: hit=%v err=%v out=%+v", hit, err, out)
	}
}

func TestStoreConcurrentWritersAndSweeps(t *testing.T) {
	// Concurrent Puts of the same key interleaved with Opens (each running
	// a temp sweep) must never error or corrupt the entry: renames are
	// atomic and the sweep's age threshold keeps it off live temp files.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", []byte("hot"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Put(key, payload{Name: "hot", Value: float64(w)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if _, err := Open(dir); err != nil {
					t.Errorf("opener %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var out payload
	hit, err := s.Get(key, &out)
	if err != nil || !hit {
		t.Fatalf("after concurrent writes: hit=%v err=%v", hit, err)
	}
	if out.Name != "hot" || out.Value < 0 || out.Value > 7 {
		t.Fatalf("entry corrupted: %+v", out)
	}
}

func TestStoreGetClassifiesErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out payload

	// A real I/O fault must surface, not degrade to a miss. A regular file
	// blocking a path component yields ENOTDIR — an error even for root,
	// unlike permission bits.
	if err := os.WriteFile(filepath.Join(dir, "blocker"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("blocker/entry", &out); err == nil {
		t.Fatal("I/O fault (ENOTDIR) degraded to a miss")
	} else if !strings.Contains(err.Error(), "read entry") {
		t.Fatalf("unexpected error shape: %v", err)
	}

	// A directory squatting at an entry path is a malformed store, not an
	// I/O fault: a miss, so the caller recomputes and Put fails loudly.
	if err := os.Mkdir(s.Path("dirkey"), 0o755); err != nil {
		t.Fatal(err)
	}
	if hit, err := s.Get("dirkey", &out); err != nil || hit {
		t.Fatalf("directory at entry path: hit=%v err=%v, want miss", hit, err)
	}

	// Permission denial is the canonical real fault (CI runs unprivileged;
	// root bypasses permission bits, so skip there).
	if os.Geteuid() != 0 {
		key := Key("v1", []byte("locked"))
		if err := s.Put(key, payload{Value: 1}); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(s.Path(key), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(key, &out); err == nil {
			t.Fatal("permission fault degraded to a miss")
		}
	}
}

func TestStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := s.Stats()
	if err != nil {
		t.Fatalf("stats on empty store: %v", err)
	}
	if empty != (Stats{}) {
		t.Fatalf("empty store stats %+v", empty)
	}
	if err := s.Put(Key("v1", []byte("a")), payload{Name: "a", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key("v1", []byte("b")), payload{Name: "b", Value: 2}); err != nil {
		t.Fatal(err)
	}
	// An orphaned Put temp (crashed writer) and a subdirectory: the temp is
	// counted, the directory ignored, neither inflates Entries/TotalBytes.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Entries != 2 {
		t.Errorf("entries %d, want 2", st.Entries)
	}
	if st.OrphanedTemps != 1 {
		t.Errorf("orphaned temps %d, want 1", st.OrphanedTemps)
	}
	var sum int64
	for _, key := range []string{Key("v1", []byte("a")), Key("v1", []byte("b"))} {
		info, err := os.Stat(s.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		sum += info.Size()
	}
	if st.TotalBytes != sum {
		t.Errorf("total bytes %d, want %d", st.TotalBytes, sum)
	}
}
