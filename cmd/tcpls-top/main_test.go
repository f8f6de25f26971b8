package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcpls"
	"tcpls/internal/health"
)

// serveFrame stands up the two pages tcpls-top polls, holding the given
// /debug/tcpls entries and health statuses, and returns the frame
// buildFrame draws from them.
func serveFrame(t *testing.T, entries map[string]any, statuses map[string]health.Status) string {
	t.Helper()
	page := func(field string, v any) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if err := json.NewEncoder(w).Encode(map[string]any{field: v}); err != nil {
				t.Error(err)
			}
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/tcpls", page("sessions", entries))
	mux.Handle("/debug/tcpls/health", page("health", statuses))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	frame, err := buildFrame(ts.Client(), strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// idleServer is what internal/server registers on /debug/tcpls.
var idleServer = map[string]any{
	"sessions": 0, "memory_bytes": 0, "budget_used_bytes": 0,
	"budget_limit_bytes": 1 << 30, "budget_hot": false, "draining": true,
	"accepted_total": 3, "drained_total": 3, "handshakes_inflight": 0,
}

// TestFrameIdleServer: a server runtime's entry is a server line, not a
// session. It used to be decoded as one — "sessions: 1" and a phantom
// row of zeroes against an idle tcpls-server.
func TestFrameIdleServer(t *testing.T) {
	frame := serveFrame(t, map[string]any{"server:server": idleServer}, nil)
	if !strings.Contains(frame, "sessions: 0\n") {
		t.Errorf("an idle server counts as a session:\n%s", frame)
	}
	if !strings.Contains(frame, "server:server  sessions 0  mem 0B  budget 0B/1.0GiB  DRAINING\n") {
		t.Errorf("no server line:\n%s", frame)
	}
	if strings.Contains(frame, "SESSION") || strings.Count(frame, "server:server") != 1 {
		t.Errorf("session table drawn with no session:\n%s", frame)
	}
}

// TestFrameTwoConnSession: a session's row and its per-path subrows come
// from the Snapshot the page carries, joined with its health status.
func TestFrameTwoConnSession(t *testing.T) {
	const key = "ab12cd34-server-1"
	snap := tcpls.Snapshot{
		Role: "server", MemoryBytes: 3 << 20, ConnsLive: 1, StreamsOpen: 1,
		Conns: []tcpls.ConnSnapshot{
			{ID: 0, Failed: true},
			{ID: 1, SRTTUS: 1500, DeliveryRate: 2e6, InFlight: 4096, RecvPaused: true},
		},
		Streams: []tcpls.StreamSnapshot{{ID: 2, Conn: 1}},
	}
	st := health.Status{
		Key: key, GoodputTxBps: 5e6, AckRTTUS: 1500,
		Active: []health.Verdict{{Name: "stall_suspected"}},
		Paths:  []health.PathStatus{{Conn: 1, GoodputTxBps: 5e6}},
	}
	frame := serveFrame(t,
		map[string]any{key: snap, "server:server": idleServer},
		map[string]health.Status{key: st})
	if !strings.Contains(frame, "sessions: 1\n") {
		t.Errorf("one session and one server, counted otherwise:\n%s", frame)
	}
	var row, conns []string
	for _, line := range strings.Split(frame, "\n") {
		switch {
		case strings.HasPrefix(line, key):
			row = strings.Fields(line)
		case strings.HasPrefix(line, "  conn "):
			conns = append(conns, strings.Join(strings.Fields(line), " "))
		}
	}
	want := []string{key, "server", "stall_suspected", "5.0MB/s", "0B/s", "0.0%", "1.5ms", "0", "3.0MiB", "2", "1"}
	if strings.Join(row, " ") != strings.Join(want, " ") {
		t.Errorf("session row %v, want %v", row, want)
	}
	wantConns := []string{
		"conn 0 0B/s tx srtt - rate 0B/s inflight 0B FAILED",
		"conn 1 5.0MB/s tx srtt 1.5ms rate 2.0MB/s inflight 4.0KiB paused",
	}
	if strings.Join(conns, "\n") != strings.Join(wantConns, "\n") {
		t.Errorf("conn subrows:\n%s\nwant:\n%s", strings.Join(conns, "\n"), strings.Join(wantConns, "\n"))
	}
}
