// Package cache is a content-addressed result store for the experiment
// runner. Entries are JSON values filed under a key derived from the SHA-256
// of a canonical input encoding plus a caller-supplied version stamp, so a
// repeated or interrupted sweep only pays for cells whose inputs (or the
// code producing them) actually changed.
//
// The store is deliberately forgiving about CONTENT on the read path: a
// missing, truncated, or tampered entry is reported as a miss, never as an
// error — the caller's fallback is always "recompute and overwrite". Real
// I/O faults (permission denied on a shared cache volume, EIO) are NOT
// misses: they surface as errors, because silently recomputing a sweep a
// broken volume can never serve again hides an operational problem. Writes
// are atomic (temp file + rename), so a crash mid-Put leaves either the old
// entry or none, and concurrent writers of the same key are safe; temp
// files orphaned by a crash are swept by the next Open. Put does not sync:
// a caller whose entries must survive a machine crash calls Sync once they
// have to.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Key derives the content address for a canonical payload under a version
// stamp. Bumping the version invalidates every previously stored entry
// derived from the same payloads — the knob callers turn when the code that
// computes the values changes semantics.
func Key(version string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{0}) // keep ("ab","c") and ("a","bc") distinct
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// Store persists JSON values in one directory, one file per key.
type Store struct {
	dir string
}

// staleTempAge is how old an orphaned Put temp file must be before Open
// removes it. A crashed process (e.g. a sweep shard killed mid-run) leaves
// its `<key>.tmp-*` files behind forever; an age threshold reclaims them
// while never racing a live concurrent writer, whose temp exists for
// milliseconds between CreateTemp and Rename.
const staleTempAge = time.Hour

// Open creates (if needed) and opens a store rooted at dir, sweeping any
// stale temp files a crashed writer left behind.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	sweepStaleTemps(dir)
	return &Store{dir: dir}, nil
}

// sweepStaleTemps removes Put temp files older than staleTempAge. Best
// effort: the sweep is garbage collection, so any error (a file removed by
// a concurrent sweep, a permission oddity) is simply skipped.
func sweepStaleTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file an entry for key lives at.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// envelope is the on-disk entry format. The checksum covers the value bytes,
// so bit rot or manual edits are detected and the entry degrades to a miss
// instead of serving a silently wrong result.
type envelope struct {
	Key      string          `json:"key"`
	Checksum string          `json:"checksum"`
	Value    json.RawMessage `json:"value"`
}

func valueChecksum(value []byte) string {
	sum := sha256.Sum256(value)
	return hex.EncodeToString(sum[:])
}

// Get loads the entry for key into out: GetRaw plus a decode, which is
// also a miss when the value does not decode into out.
func (s *Store) Get(key string, out any) (bool, error) {
	value, ok, err := s.GetRaw(key)
	if !ok || err != nil {
		return false, err
	}
	return json.Unmarshal(value, out) == nil, nil
}

// GetRaw returns the checksum-verified value bytes stored under key — the
// exact bytes Put encoded. It returns (nil, false, nil) when the entry is
// absent or fails any integrity check — corruption is a cache miss, not an
// error, so sweeps always fall back to recomputing. A real I/O fault
// (permission denied, EIO on a failing volume) is an error: the entry may
// exist but cannot be read, and treating that as a permanent miss would
// silently recompute every cell on every run.
func (s *Store) GetRaw(key string) (json.RawMessage, bool, error) {
	raw, err := os.ReadFile(s.Path(key))
	switch {
	case err == nil:
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, syscall.EISDIR):
		// Absent — or something that is not a regular file squatting where
		// the entry would live, which is a malformed store, not an I/O
		// fault: a miss, and Put's rename will fail loudly if it cannot
		// repair it.
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cache: read entry %s: %w", key, err)
	}
	var env envelope
	if json.Unmarshal(raw, &env) != nil {
		return nil, false, nil
	}
	if env.Key != key || valueChecksum(env.Value) != env.Checksum {
		return nil, false, nil
	}
	return env.Value, true, nil
}

// Put stores v under key, atomically replacing any existing entry.
func (s *Store) Put(key string, v any) error {
	value, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cache: encode value: %w", err)
	}
	raw, err := json.Marshal(envelope{
		Key:      key,
		Checksum: valueChecksum(value),
		Value:    value,
	})
	if err != nil {
		return fmt.Errorf("cache: encode entry: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.Path(key)); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// Sync makes the entry under key durable. A missing entry is an error. A
// crash before Sync can leave a Put's entry torn, which reads as a miss;
// after Sync the entry survives. The sweep service keeps results nowhere
// but the cache, so it syncs a job's entries before the job may finish.
func (s *Store) Sync(key string) error {
	f, err := os.Open(s.Path(key))
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("cache: sync entry %s: %w", key, err)
	}
	return nil
}

// Stats summarizes the store's on-disk footprint: how many entries it
// holds, how many bytes they occupy, and how many orphaned Put temp files a
// crashed writer has left behind (the ones a future Open will sweep once
// they age past staleTempAge). Surfaced by the sweep service's /v1/healthz
// and the experiments CLI's -stats flag.
type Stats struct {
	Entries       int   `json:"entries"`
	TotalBytes    int64 `json:"totalBytes"`
	OrphanedTemps int   `json:"orphanedTemps"`
}

// Stats walks the store directory and reports its footprint.
func (s *Store) Stats() (Stats, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return Stats{}, fmt.Errorf("cache: %w", err)
	}
	var st Stats
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.Contains(e.Name(), ".tmp-") {
			st.OrphanedTemps++
			continue
		}
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			// The entry vanished between ReadDir and Stat (a concurrent
			// sweep's Put/sweep); skip it rather than fail diagnostics.
			continue
		}
		st.Entries++
		st.TotalBytes += info.Size()
	}
	return st, nil
}

// Len counts the entries currently stored (diagnostics and tests).
func (s *Store) Len() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("cache: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}
