package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// functions. Spans of one cell or one job share Key; Parent links a call to
// the span that caused it. Ops is how many operations the span timed (a
// unit-cost loop times many calls in one span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Ops    int    `json:"ops,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced mode: every method is a no-op, so traced and untraced runs share
// one code path.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	r *recorder
	s span
}

// start opens a span; end closes it. Both are safe on a nil recorder.
func (r *recorder) start(name, key string, parent int64) *openSpan {
	if r == nil {
		return nil
	}
	return &openSpan{r: r, s: span{ID: r.nextID.Add(1), Parent: parent, Name: name, Key: key,
		Start: int64(time.Since(r.epoch))}}
}

// id is the span's identifier for children (0 when untraced).
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() { o.endOps(0) }

// endOps closes a span that timed ops operations.
func (o *openSpan) endOps(ops int) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.epoch))
	o.s.Ops = ops
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// add records a span whose ends were observed elsewhere. Safe on a nil
// recorder.
func (r *recorder) add(name, key string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: r.nextID.Add(1), Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// named returns the closed spans called name, in start order.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// children returns the closed spans whose parent is id.
func (r *recorder) children(id int64) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// durations lists the durations of the spans called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.named(name) {
		out = append(out, float64(s.dur()))
	}
	return out
}

// perOp is the median per-operation time of the unit-cost spans called
// name, in nanoseconds.
func (r *recorder) perOp(name string) float64 {
	var out []float64
	for _, s := range r.named(name) {
		if s.Ops > 0 {
			out = append(out, float64(s.dur())/float64(s.Ops))
		}
	}
	return median(out)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// merge appends other's spans under prefix-qualified names, re-numbered
// past r's own identifiers, so a probe's spans are written out with the
// run's without mixing into the workload's own span names.
func (r *recorder) merge(other *recorder, prefix string) {
	other.mu.Lock()
	spans := append([]span(nil), other.spans...)
	other.mu.Unlock()
	base := r.nextID.Add(other.nextID.Load())
	offset := base - other.nextID.Load()
	shift := other.epoch.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range spans {
		s.ID += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		s.Name = prefix + s.Name
		s.Start += shift
		s.End += shift
		r.spans = append(r.spans, s)
	}
}
