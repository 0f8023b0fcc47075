package service

import (
	"slices"
	"sync"
)

// event is one server-sent event: a name ("progress" or "state"), a
// pre-encoded JSON data payload, and the per-job sequence number the hub
// stamps at publish. id 0 marks events generated outside the hub (the
// handler's initial snapshot and poll fallback), which carry no "id:" line
// and do not advance a client's Last-Event-ID.
type event struct {
	name string
	data []byte
	id   uint64
}

// subscriber is one /events connection's queue. The buffer absorbs bursts;
// publish never blocks on a slow reader (see hub.publish).
type subscriber struct {
	ch chan event
}

// subscriberBuffer bounds each subscriber's queue. A manifest-hit job can
// emit its whole matrix in one scheduling quantum, far faster than a TCP
// peer drains — overflow drops progress events for that subscriber rather
// than stalling the sweep (the handler's state poll guarantees the terminal
// state is still observed, and the replay ring lets a reconnecting client
// recover what it missed).
const subscriberBuffer = 64

// replayRing bounds how many published events each job retains for
// Last-Event-ID replay. A reconnect within the last replayRing events
// resumes exactly; older gaps degrade to a fresh state snapshot.
const replayRing = 256

// maxStreams bounds how many jobs' rings the hub retains; beyond it the
// oldest subscriber-less stream is evicted (its future reconnects see a
// gap, which the handler heals with a snapshot).
const maxStreams = 256

// jobStream is one job's fan-out state: live subscribers, the publish
// sequence, and the replay ring.
type jobStream struct {
	subs map[*subscriber]struct{}
	seq  uint64
	ring []event
}

// hub fans job progress out to SSE subscribers and retains a bounded replay
// ring per job. Publishing is fire-and-forget from the scheduler's sink;
// subscribing and unsubscribing happen on handler goroutines as clients
// come and go.
type hub struct {
	mu    sync.Mutex
	jobs  map[string]*jobStream
	order []string // stream creation order, for eviction

	// beforeSubscribe, when set, runs at the start of subscribe, so tests
	// can land a job transition just before a subscriber is registered.
	beforeSubscribe func(jobID string)
}

func newHub() *hub {
	return &hub{jobs: make(map[string]*jobStream)}
}

// stream returns jobID's stream, creating (and evicting, at the cap) as
// needed. Caller holds h.mu.
func (h *hub) stream(jobID string) *jobStream {
	js := h.jobs[jobID]
	if js != nil {
		return js
	}
	js = &jobStream{subs: make(map[*subscriber]struct{})}
	h.jobs[jobID] = js
	h.order = append(h.order, jobID)
	for len(h.order) > maxStreams {
		victim := -1
		for i, id := range h.order {
			if len(h.jobs[id].subs) == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			// Every retained stream has a live subscriber — exceed the cap
			// rather than orphan one.
			break
		}
		delete(h.jobs, h.order[victim])
		h.order = append(h.order[:victim], h.order[victim+1:]...)
	}
	return js
}

// subscribe registers a new listener for jobID's events.
func (h *hub) subscribe(jobID string) *subscriber {
	if h.beforeSubscribe != nil {
		h.beforeSubscribe(jobID)
	}
	sub := &subscriber{ch: make(chan event, subscriberBuffer)}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stream(jobID).subs[sub] = struct{}{}
	return sub
}

// unsubscribe removes a listener; safe to call once per subscriber. The
// stream itself is retained — its ring is what a reconnect replays — unless
// nothing was ever published to it (an unknown job, or one not yet
// started), so requests for unknown ids leave nothing behind to crowd out
// real streams.
func (h *hub) unsubscribe(jobID string, sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	js := h.jobs[jobID]
	if js == nil {
		return
	}
	delete(js.subs, sub)
	if len(js.subs) == 0 && js.seq == 0 {
		delete(h.jobs, jobID)
		h.order = slices.DeleteFunc(h.order, func(id string) bool { return id == jobID })
	}
}

// publish stamps ev with the job's next sequence number, records it in the
// replay ring, and delivers it to every current subscriber — dropping it
// for subscribers whose buffer is full: progress events are advisory, and a
// stalled client must never backpressure the sweep.
func (h *hub) publish(jobID string, ev event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	js := h.stream(jobID)
	js.seq++
	ev.id = js.seq
	js.ring = append(js.ring, ev)
	if len(js.ring) > replayRing {
		js.ring = js.ring[len(js.ring)-replayRing:]
	}
	for sub := range js.subs {
		select {
		case sub.ch <- ev:
		default:
		}
	}
}

// replay returns the events published after lastID that the ring still
// holds. gap=true means continuity cannot be proven — events beyond the
// ring were lost, the stream was evicted, or lastID comes from a previous
// process — and the caller should resynchronize the client with a fresh
// state snapshot before replaying.
func (h *hub) replay(jobID string, lastID uint64) (missed []event, gap bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	js := h.jobs[jobID]
	if js == nil {
		return nil, true
	}
	if lastID > js.seq {
		return nil, true
	}
	for _, ev := range js.ring {
		if ev.id > lastID {
			missed = append(missed, ev)
		}
	}
	switch {
	case len(js.ring) == 0:
		gap = js.seq > lastID
	default:
		gap = js.ring[0].id > lastID+1
	}
	return missed, gap
}
