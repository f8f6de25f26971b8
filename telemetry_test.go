package tcpls

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tcpls/internal/telemetry"
	"tcpls/internal/testutil"
)

// scrapeMetrics fetches the Prometheus exposition from the shared
// telemetry server registered under cfgAddr (the Config.Telemetry.Addr
// key, which may be ":0" — the bound port is looked up internally).
func scrapeMetrics(t *testing.T, cfgAddr string) string {
	t.Helper()
	telServersMu.Lock()
	ts, ok := telServers[cfgAddr]
	telServersMu.Unlock()
	if !ok {
		t.Fatalf("no shared telemetry server for %q", cfgAddr)
	}
	resp, err := http.Get("http://" + ts.srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample line ("name{labels} value") from an
// exposition body; missing series read as 0 (Prometheus counters are
// born lazily on first touch).
func metricValue(body, series string) uint64 {
	for _, line := range strings.Split(body, "\n") {
		var v uint64
		if n, _ := fmt.Sscanf(line, series+" %d", &v); n == 1 && strings.HasPrefix(line, series+" ") {
			return v
		}
	}
	return 0
}

// TestTelemetryMetricsMatchEventsDuringFailover drives the acceptance
// scenario: a two-path session loses one path, fails over, and the
// /metrics endpoint must agree with the SessionEvents the wrapper
// emitted — while /debug/pprof stays responsive on the same port.
func TestTelemetryMetricsMatchEventsDuringFailover(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	const telAddr = "127.0.0.1:0"

	scfg := &Config{EnableFailover: true, AckPeriod: 4, NumCookies: 4}
	srv := startChaosServer(t, scfg, echoHandler)
	sess, err := Dial("tcp", srv.ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
		Telemetry: TelemetryConfig{Addr: telAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", srv.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}

	// Kill path 0; the sibling absorbs the streams.
	sess.mu.Lock()
	pc0 := sess.pathConnLocked(0)
	sess.mu.Unlock()
	pc0.nc.Close()

	// WaitEvent drains the queue, so tally kinds as they stream past.
	var downs, failovers int
	tally := func(ev SessionEvent) {
		switch ev.Kind {
		case EventConnDown:
			downs++
		case EventFailover:
			failovers++
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for failovers == 0 {
		ev, err := sess.WaitEvent(ctx)
		if err != nil {
			t.Fatalf("waiting for failover: %v", err)
		}
		tally(ev)
	}
	if _, err := st.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	for _, ev := range sess.Events() {
		tally(ev)
	}

	// The snapshot and the scrape must tell the same story as the
	// event stream.
	snap := sess.Snapshot()
	if snap.Failovers != uint64(failovers) || snap.Failovers == 0 {
		t.Fatalf("snapshot failovers = %d, events saw %d", snap.Failovers, failovers)
	}
	if snap.ConnFailures != uint64(downs) || snap.ConnFailures == 0 {
		t.Fatalf("snapshot conn failures = %d, events saw %d", snap.ConnFailures, downs)
	}
	if snap.Stats.RecordsSent == 0 || snap.ConnsLive != 1 {
		t.Fatalf("snapshot stats=%+v conns=%d", snap.Stats, snap.ConnsLive)
	}

	label := sessLabel(sess.ID())
	body := scrapeMetrics(t, telAddr)
	if got := metricValue(body, fmt.Sprintf("tcpls_failovers_total{sess=%q,role=\"client\"}", label)); got != snap.Failovers {
		t.Fatalf("/metrics failovers = %d, snapshot %d\n%s", got, snap.Failovers, body)
	}
	if got := metricValue(body, fmt.Sprintf("tcpls_conn_failures_total{sess=%q,role=\"client\"}", label)); got != snap.ConnFailures {
		t.Fatalf("/metrics conn failures = %d, snapshot %d", got, snap.ConnFailures)
	}
	if got := metricValue(body, fmt.Sprintf("tcpls_retransmits_total{sess=%q,role=\"client\",conn=\"1\"}", label)); got == 0 {
		t.Fatal("/metrics shows no retransmits on the failover target")
	}
	if !strings.Contains(body, fmt.Sprintf("tcpls_records_sent_total{sess=%q,role=\"client\",conn=\"0\"}", label)) {
		t.Fatalf("/metrics missing per-conn records counter:\n%s", body)
	}

	// pprof rides on the same endpoint.
	telServersMu.Lock()
	telHTTPAddr := telServers[telAddr].srv.Addr()
	telServersMu.Unlock()
	resp, err := http.Get("http://" + telHTTPAddr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/goroutine status %d", resp.StatusCode)
	}

	// Closing the last holder must stop the shared server and leak no
	// goroutines.
	sess.Close()
	srv.Close()
	telServersMu.Lock()
	_, alive := telServers[telAddr]
	telServersMu.Unlock()
	if alive {
		t.Fatal("shared telemetry server survived its last reference")
	}
	testutil.CheckGoroutines(t, baseGoroutines)
}

// TestTelemetryReconnectCountersMatchEvents asserts the recovery
// supervisor's attempt/success counters line up with the emitted
// EventReconnecting/EventReconnected sequence after total path loss.
func TestTelemetryReconnectCountersMatchEvents(t *testing.T) {
	scfg := &Config{EnableFailover: true, AckPeriod: 4, NumCookies: 8}
	srv := startChaosServer(t, scfg, echoHandler)
	sess, err := Dial("tcp", srv.ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
		Reconnect: ReconnectConfig{
			MaxAttempts: 20,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Deadline:    10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}

	sess.mu.Lock()
	pc0 := sess.pathConnLocked(0)
	sess.mu.Unlock()
	pc0.nc.Close()

	// WaitEvent drains the queue, so tally kinds as they stream past.
	var attempts, reconnects int
	tally := func(ev SessionEvent) {
		switch ev.Kind {
		case EventReconnecting:
			attempts++
		case EventReconnected:
			reconnects++
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	for reconnects == 0 {
		ev, err := sess.WaitEvent(ctx)
		if err != nil {
			t.Fatalf("waiting for reconnection: %v", err)
		}
		tally(ev)
	}
	for _, ev := range sess.Events() {
		tally(ev)
	}
	snap := sess.Snapshot()
	if snap.ReconnectAttempts != uint64(attempts) || attempts == 0 {
		t.Fatalf("snapshot attempts = %d, events saw %d", snap.ReconnectAttempts, attempts)
	}
	if snap.Reconnects != uint64(reconnects) || reconnects != 1 {
		t.Fatalf("snapshot reconnects = %d, events saw %d", snap.Reconnects, reconnects)
	}
}

// TestTelemetryDisabled: with the layer off the session has no registry
// entry, but its Snapshot is whole: the engine counts either way, so
// the connection rows sum to Session.Stats() and the stream rows carry
// their bytes.
func TestTelemetryDisabled(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Telemetry:  TelemetryConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	if sess.entry != nil || sess.debugKey != "" {
		t.Fatal("Disabled session still attached to the registry")
	}
	snap, stats := sess.Snapshot(), sess.Stats()
	var perConn Stats
	for i := range snap.Conns {
		perConn.Add(&snap.Conns[i].Stats)
	}
	if stats.RecordsSent == 0 || snap.Stats != stats || perConn != stats {
		t.Fatalf("Stats() %+v, snapshot %+v, conn rows sum to %+v", stats, snap.Stats, perConn)
	}
	var row *StreamSnapshot
	for i := range snap.Streams {
		if snap.Streams[i].ID == st.id {
			row = &snap.Streams[i]
		}
	}
	if row == nil || row.BytesSent != 5 || row.BytesReceived != 5 {
		t.Fatalf("stream %d row %+v, want 5 bytes each way", st.id, row)
	}
}

// TestTraceJSONThroughSink: TraceJSON output is valid JSON lines and the
// per-session trace counters account for every emitted event.
func TestTraceJSONThroughSink(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	pr, pw := io.Pipe()
	lines := make(chan string, 256)
	go func() {
		defer close(lines)
		buf := make([]byte, 64<<10)
		var pending strings.Builder
		for {
			n, err := pr.Read(buf)
			pending.Write(buf[:n])
			for {
				s := pending.String()
				i := strings.IndexByte(s, '\n')
				if i < 0 {
					break
				}
				lines <- s[:i]
				pending.Reset()
				pending.WriteString(s[i+1:])
			}
			if err != nil {
				return
			}
		}
	}()
	sess.TraceJSON(pw)

	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("traced")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}

	// Stop tracing; the old sink flushes asynchronously into the pipe.
	sess.TraceJSON(nil)
	var first string
	select {
	case first = <-lines:
	case <-time.After(3 * time.Second):
		t.Fatal("no trace lines flushed")
	}
	if first != telemetry.QlogHeader {
		t.Fatalf("first trace line = %q, want qlog header", first)
	}
	var second string
	select {
	case second = <-lines:
	case <-time.After(3 * time.Second):
		t.Fatal("no event lines after qlog header")
	}
	if !strings.HasPrefix(second, `{"time_us":`) || !strings.Contains(second, `"type":`) {
		t.Fatalf("trace line not in qlog NDJSON schema: %q", second)
	}
	snap := sess.Snapshot()
	if snap.TraceEvents == 0 {
		t.Fatal("tcpls_trace_events_total not fed by TraceJSON")
	}
	if snap.TraceDropped != 0 {
		t.Fatalf("healthy sink dropped %d events", snap.TraceDropped)
	}
	pw.Close()
}

// TestTelemetryEndsCountApart: the two ends of one session share a
// sessLabel, and in one process they used to share the counters behind
// it, so Metrics() on one end included what the other end did. Each end
// owns its block now: against an in-process server that sends as much
// as it receives, the client's per-connection counters equal its own
// engine's Stats, and /metrics carries one series per end.
func TestTelemetryEndsCountApart(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64<<10)
	for i := 0; i < 4; i++ {
		if _, err := st.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(st, msg); err != nil {
			t.Fatal(err)
		}
	}
	snap := sess.Snapshot()
	c0 := snap.Conns[0]
	if c0.RecordsSent != snap.Stats.RecordsSent || c0.RecordsReceived != snap.Stats.RecordsReceived ||
		c0.BytesSent != snap.Stats.BytesSent || c0.BytesReceived != snap.Stats.BytesReceived {
		t.Fatalf("client conn 0 counters %+v include the server's end; the client's engine says %+v", c0, snap.Stats)
	}
	got := telemetry.Default().Gather()
	for _, role := range []string{"client", "server"} {
		series := fmt.Sprintf("tcpls_records_sent_total{sess=%q,role=%q,conn=\"0\"}", sessLabel(sess.ID()), role)
		if got[series] == 0 {
			t.Errorf("registry lacks %s", series)
		}
	}
}

// observabilityHoldings counts what the process-wide observability
// registries hold: metric series, /debug/tcpls and /debug/tcpls/health
// sources, process-monitor references, and goroutines (a health engine
// with a monitor still registered keeps its poller running).
type observabilityHoldings struct {
	series, debug, health, procRefs, goroutines int
}

// within reports whether h holds no more than limit of anything.
func (h observabilityHoldings) within(limit observabilityHoldings) bool {
	return h.series <= limit.series && h.debug <= limit.debug && h.health <= limit.health &&
		h.procRefs <= limit.procRefs && h.goroutines <= limit.goroutines
}

func countObservability(t *testing.T) observabilityHoldings {
	t.Helper()
	sources := func(h http.Handler, field string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		var page map[string]map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		return len(page[field])
	}
	h := observabilityHoldings{
		debug:      sources(telemetry.DebugHandler(), "sessions"),
		health:     sources(telemetry.HealthHandler(), "health"),
		goroutines: runtime.NumGoroutine(),
	}
	// Read last: a closing session detaches its block before it leaves
	// the debug page, so no source means no block either.
	h.series = len(telemetry.Default().Gather())
	procHealthMu.Lock()
	h.procRefs = procHealthRefs
	procHealthMu.Unlock()
	return h
}

// TestTelemetrySessionChurnLeavesNothing is the leak gate for the
// lifetime rule (DESIGN §9): 2 000 Dial → 1 KiB echo → Close cycles at
// the default Config, after which the process-wide registries, the
// health engines and the goroutine count are back where they started
// and the heap is within a few MB of it. One session used to leave ~50
// registry children behind for good.
func TestTelemetrySessionChurnLeavesNothing(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	msg := make([]byte, 1<<10)
	cycle := func() {
		sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		st, err := sess.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(st, msg); err != nil {
			t.Fatal(err)
		}
	}
	// settled waits for the server ends of closed sessions to wind down:
	// until the process holds no more than limit (what sessions of
	// earlier tests still held at the baseline may go meanwhile).
	settled := func(limit observabilityHoldings, wait time.Duration) observabilityHoldings {
		deadline := time.Now().Add(wait)
		for {
			got := countObservability(t)
			if got.within(limit) || time.Now().After(deadline) {
				return got
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	// The process monitor's own series are permanent and appear with its
	// first tick; resolve them, and warm pools and caches, before the
	// baseline.
	healthFams.Entity("process", nil)
	for i := 0; i < 50; i++ {
		cycle()
	}
	base := settled(observabilityHoldings{series: 1 << 30, goroutines: 1 << 30}, time.Second)
	baseHeap := heapInuse()

	for i := 0; i < 2000; i++ {
		cycle()
	}
	base.goroutines += 2 // checkGoroutines' tolerance
	if after := settled(base, 5*time.Second); !after.within(base) {
		t.Errorf("2000 sessions later the process holds %+v, before them %+v", after, base)
	}
	const slack = 4 << 20
	heap := heapInuse()
	t.Logf("HeapInuse %d -> %d KiB over 2000 sessions", baseHeap>>10, heap>>10)
	if heap > baseHeap+slack {
		t.Errorf("HeapInuse grew %d KiB over 2000 sessions (%d -> %d KiB), bound %d KiB",
			(heap-baseHeap)>>10, baseHeap>>10, heap>>10, slack>>10)
	}
}
