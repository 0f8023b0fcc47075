package service

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// idEvent is one parsed SSE event with its (optional) id line.
type idEvent struct {
	id   uint64
	name string
	data string
}

// readSSEWithIDs parses events (with id lines) until the body closes or n
// events arrive.
func readSSEWithIDs(r io.Reader, n int) []idEvent {
	var events []idEvent
	var cur idEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			cur = idEvent{}
			if len(events) >= n {
				return events
			}
		}
	}
	return events
}

func getEvents(t *testing.T, f *fixture, jobID, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, f.ts.URL+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	return resp
}

// TestSSEReplayAfterReconnect is the reconnect-after-drop story: a
// subscriber reads part of the stream, drops, and reconnects with
// Last-Event-ID after the job finished — the missed events replay from the
// hub's ring, without duplicating anything already delivered.
func TestSSEReplayAfterReconnect(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	job := f.submit(t, testMatrix())

	first := getEvents(t, f, job.ID, "")
	f.svc.Start()
	// Read the initial snapshot plus the first few live events, then drop.
	head := readSSEWithIDs(first.Body, 3)
	first.Body.Close()
	if head[0].name != "state" || head[0].id != 0 {
		t.Fatalf("initial snapshot %+v, want unnumbered state", head[0])
	}
	var lastSeen uint64
	for _, ev := range head {
		if ev.id > lastSeen {
			lastSeen = ev.id
		}
	}
	if lastSeen == 0 {
		t.Fatalf("no numbered events before the drop: %+v", head)
	}
	f.waitDone(t, job.ID)

	// Reconnect where we left off: only events AFTER lastSeen replay, and
	// the stream still ends with the terminal state.
	second := getEvents(t, f, job.ID, strconv.FormatUint(lastSeen, 10))
	defer second.Body.Close()
	tail := readSSEWithIDs(second.Body, 100)
	if len(tail) == 0 {
		t.Fatal("nothing replayed")
	}
	progress := 0
	for _, ev := range tail {
		if ev.id != 0 && ev.id <= lastSeen {
			t.Fatalf("replayed already-delivered event %+v", ev)
		}
		if ev.name == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Fatal("missed progress events were not replayed")
	}
	last := tail[len(tail)-1]
	if last.name != "state" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("replayed stream ends with %+v, want terminal state", last)
	}
	// The two reads compose into the full numbered sequence: no id gaps
	// between what the first connection saw and what the second replayed.
	var ids []uint64
	for _, ev := range append(head, tail...) {
		if ev.id != 0 {
			ids = append(ids, ev.id)
		}
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("id sequence has a hole: %v", ids)
		}
	}
}

// TestSSEReplayGapResyncs: a Last-Event-ID the ring cannot bridge (here:
// from a "previous era", beyond anything published) degrades to a fresh
// state snapshot instead of a silent nothing.
func TestSSEReplayGapResyncs(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), true)
	job := f.waitDone(t, f.submit(t, testMatrix()).ID)
	resp := getEvents(t, f, job.ID, "999999")
	defer resp.Body.Close()
	events := readSSEWithIDs(resp.Body, 10)
	if len(events) == 0 {
		t.Fatal("gap reconnect got nothing")
	}
	if events[0].name != "state" || !strings.Contains(events[0].data, `"done"`) {
		t.Fatalf("gap reconnect first event %+v, want fresh terminal snapshot", events[0])
	}
}

// TestSSETerminalBetweenReadAndSubscribe lands the terminal transition just
// before the handler's subscribe registers: its final state event goes to
// nobody, so the stream must still end with the terminal state at once,
// not after the poll interval.
func TestSSETerminalBetweenReadAndSubscribe(t *testing.T) {
	f := newFixture(t, t.TempDir(), t.TempDir(), false)
	job := f.submit(t, testMatrix())
	f.svc.hub.beforeSubscribe = func(id string) {
		req := httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+id, nil)
		rec := httptest.NewRecorder()
		f.svc.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("cancel in the window: status %d", rec.Code)
		}
	}

	start := time.Now()
	resp := getEvents(t, f, job.ID, "")
	defer resp.Body.Close()
	events := readSSEWithIDs(resp.Body, 10)
	elapsed := time.Since(start)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if last := events[len(events)-1]; last.name != "state" || !strings.Contains(last.data, `"canceled"`) {
		t.Fatalf("stream ends with %+v, want the canceled state", last)
	}
	if elapsed >= eventsPollInterval/2 {
		t.Fatalf("stream took %v to end, want well under the %v poll", elapsed, eventsPollInterval)
	}
}
