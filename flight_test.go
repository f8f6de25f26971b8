package tcpls

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tcpls/internal/fault"
	"tcpls/internal/netem"
	"tcpls/internal/qlog"
	"tcpls/internal/testutil"
)

// twoPathSession dials srv and joins a second path (JoinPath returns once
// the server has adopted it).
func twoPathSession(t *testing.T, srv *chaosServer, cfg *Config) (sess *Session, conn2 uint32) {
	t.Helper()
	sess, err := Dial("tcp", srv.ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if conn2, err = sess.JoinPath("tcp", srv.ln.Addr().String()); err != nil {
		sess.Close()
		t.Fatal(err)
	}
	return sess, conn2
}

// killPath closes connection id's socket under the session and waits
// for the failover it forces.
func killPath(t *testing.T, sess *Session, id uint32) {
	t.Helper()
	sess.mu.Lock()
	pc := sess.pathConnLocked(id)
	sess.mu.Unlock()
	pc.nc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		ev, err := sess.WaitEvent(ctx)
		if err != nil {
			t.Fatalf("waiting for failover: %v", err)
		}
		if ev.Kind == EventFailover {
			return
		}
	}
}

// failoverSession dials a two-path failover session against srv, runs an
// echo round trip, kills path 0, waits for the failover event, and runs
// a second round trip over the survivor.
func failoverSession(t *testing.T, srv *chaosServer, cfg *Config) *Session {
	t.Helper()
	sess, _ := twoPathSession(t, srv, cfg)
	st, err := sess.OpenStream()
	if err != nil {
		sess.Close()
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := st.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	killPath(t, sess, 0)
	if _, err := st.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	return sess
}

// connStats keys a snapshot's per-connection counters by connection ID.
func connStats(snap Snapshot) map[uint32]Stats {
	m := make(map[uint32]Stats, len(snap.Conns))
	for _, c := range snap.Conns {
		m[c.ID] = c.Stats
	}
	return m
}

// quiesce polls until two snapshots 100ms apart agree on the per-conn
// counters and the flight total — no trace events in flight.
func quiesce(t *testing.T, sess *Session) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev := sess.Snapshot()
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		cur := sess.Snapshot()
		if reflect.DeepEqual(connStats(prev), connStats(cur)) && prev.FlightTotal == cur.FlightTotal {
			return cur
		}
		prev = cur
	}
	t.Fatal("session never quiesced")
	return prev
}

// TestFlightDumpMatchesMetricsAcrossFailover is the acceptance test:
// the analyzer run over a flight-recorder dump must reconstruct the
// failover gap and per-path record counts that agree exactly with
// Session.Snapshot().
func TestFlightDumpMatchesMetricsAcrossFailover(t *testing.T) {
	// The per-conn counters live in the process-wide registry keyed by
	// session label, which both endpoint halves share — disable the
	// server half so Snapshot() reflects exactly the client's traffic,
	// the same traffic the client's flight recorder saw. AckPeriod 1
	// acks every record, completing the lifecycle spans.
	scfg := &Config{EnableFailover: true, AckPeriod: 1, NumCookies: 4,
		Telemetry: TelemetryConfig{Disabled: true}}
	srv := startChaosServer(t, scfg, echoHandler)
	sess := failoverSession(t, srv, &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 1,
	})
	defer sess.Close()

	snap := quiesce(t, sess)
	conns := connStats(snap)
	var buf bytes.Buffer
	if err := sess.DumpFlight(&buf); err != nil {
		t.Fatal(err)
	}
	if after := sess.Snapshot(); !reflect.DeepEqual(connStats(after), conns) {
		t.Skip("traffic raced the dump; counters moved")
	}
	if snap.FlightTotal != uint64(snap.FlightEvents) {
		t.Fatalf("flight wrapped (%d total, %d held); test traffic should fit the ring",
			snap.FlightTotal, snap.FlightEvents)
	}

	events, err := qlog.Parse(&buf)
	if err != nil {
		t.Fatalf("flight dump unparseable: %v", err)
	}
	rep := qlog.Analyze(events, qlog.Options{})
	if len(rep.Violations) != 0 {
		t.Fatalf("trace violations: %v", rep.Violations)
	}

	// Per-path record counts must match the telemetry counters exactly.
	if len(rep.Paths) != len(conns) {
		t.Fatalf("analyzer saw %d paths, metrics %d", len(rep.Paths), len(conns))
	}
	for _, p := range rep.Paths {
		cm, ok := conns[p.Conn]
		if !ok {
			t.Fatalf("analyzer path %d missing from metrics", p.Conn)
		}
		if p.RecordsSent != cm.RecordsSent {
			t.Errorf("conn %d records sent: trace %d, metrics %d", p.Conn, p.RecordsSent, cm.RecordsSent)
		}
		if p.RecordsRecv != cm.RecordsReceived {
			t.Errorf("conn %d records received: trace %d, metrics %d", p.Conn, p.RecordsRecv, cm.RecordsReceived)
		}
		if p.Retransmits != cm.Retransmits {
			t.Errorf("conn %d retransmits: trace %d, metrics %d", p.Conn, p.Retransmits, cm.Retransmits)
		}
		if p.AcksSent != cm.AcksSent {
			t.Errorf("conn %d acks sent: trace %d, metrics %d", p.Conn, p.AcksSent, cm.AcksSent)
		}
		if p.AcksReceived != cm.AcksReceived {
			t.Errorf("conn %d acks received: trace %d, metrics %d", p.Conn, p.AcksReceived, cm.AcksReceived)
		}
		if p.DupDropped != cm.DupRecordsDropped {
			t.Errorf("conn %d dups: trace %d, metrics %d", p.Conn, p.DupDropped, cm.DupRecordsDropped)
		}
		if p.BytesSent != cm.BytesSent {
			t.Errorf("conn %d bytes sent: trace %d, metrics %d", p.Conn, p.BytesSent, cm.BytesSent)
		}
		if p.BytesReceived != cm.BytesReceived {
			t.Errorf("conn %d bytes received: trace %d, metrics %d", p.Conn, p.BytesReceived, cm.BytesReceived)
		}
	}

	// The failover gap must be reconstructed: conn 0 died, conn 1 took
	// over, and records flowed again.
	if len(rep.Failovers) != 1 {
		t.Fatalf("analyzer saw %d failover gaps, want 1", len(rep.Failovers))
	}
	g := rep.Failovers[0]
	if !g.Closed || g.FailedConn != 0 || g.TargetConn != 1 {
		t.Fatalf("failover gap: %+v", g)
	}
	if g.DurationUS < 0 {
		t.Fatalf("negative gap duration: %+v", g)
	}

	// Lifecycle spans cover the acknowledged records, with sane legs.
	if rep.Spans.Count == 0 {
		t.Fatal("no record_span events in flight dump")
	}
	if rep.Spans.TotalP50US <= 0 {
		t.Fatalf("span total p50 = %dus, want > 0", rep.Spans.TotalP50US)
	}
}

// TestMetricsAndDumpFlightConcurrentWithClose hammers Session.Snapshot
// and Session.DumpFlight from racing goroutines through a failover and
// a concurrent Close. Run under -race; nothing may panic or deadlock,
// and DumpFlight must keep working after Close (postmortem use).
func TestMetricsAndDumpFlightConcurrentWithClose(t *testing.T) {
	scfg := &Config{EnableFailover: true, AckPeriod: 4, NumCookies: 4}
	srv := startChaosServer(t, scfg, echoHandler)
	sess := failoverSession(t, srv, &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := sess.Snapshot()
				_ = snap.Conns
				_ = sess.DumpFlight(io.Discard)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	sess.Close()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Postmortem dump after Close still yields a parseable trace.
	var buf bytes.Buffer
	if err := sess.DumpFlight(&buf); err != nil {
		t.Fatalf("DumpFlight after Close: %v", err)
	}
	if _, err := qlog.Parse(&buf); err != nil {
		t.Fatalf("postmortem dump unparseable: %v", err)
	}
}

// TestTraceInstallSwapRace races TraceJSON installs/uninstalls against
// flight-recorder dumps while records flow: the sink and the flight
// recorder share one fan-out, so a sink swap may neither displace the
// recorder nor leak goroutines.
func TestTraceInstallSwapRace(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}

	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // traffic
		defer wg.Done()
		buf := make([]byte, 4)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Write([]byte("spin")); err != nil {
				return
			}
			if _, err := io.ReadFull(st, buf); err != nil {
				return
			}
		}
	}()
	go func() { // sink installer
		defer wg.Done()
		var sink syncBuffer
		for i := 0; i < 50; i++ {
			sess.TraceJSON(&sink)
			sess.TraceJSON(nil)
		}
	}()
	go func() { // flight reader
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := sess.DumpFlight(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// After the dust settles a fresh sink still receives events: the
	// racing installers must not have wedged the tracer fan-out.
	var sink syncBuffer
	sess.TraceJSON(&sink)
	buf := make([]byte, 4)
	if _, err := st.Write([]byte("last")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	sess.TraceJSON(nil)
	if !strings.Contains(sink.String(), `"type":"record_sent"`) {
		t.Fatalf("re-installed sink saw no records: %q", sink.String())
	}
	// The flight recorder kept recording through every swap.
	var dump bytes.Buffer
	if err := sess.DumpFlight(&dump); err != nil || !strings.Contains(dump.String(), `"type":"record_sent"`) {
		t.Fatalf("flight recorder lost its records across sink swaps: %v", err)
	}

	sess.Close()
	testutil.CheckGoroutines(t, baseGoroutines)
}

// TestDebugTCPLSEndpoint checks the telemetry server's /debug/tcpls:
// per-session conn and stream state as JSON.
func TestDebugTCPLSEndpoint(t *testing.T) {
	const telAddr = "127.0.0.1:0"
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Telemetry:  TelemetryConfig{Addr: telAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("dbg")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(st, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}

	telServersMu.Lock()
	addr := telServers[telAddr].srv.Addr()
	telServersMu.Unlock()
	resp, err := http.Get("http://" + addr + "/debug/tcpls")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/tcpls status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"sessions"`, `"role": "client"`, `"scheduler"`, `"conns"`, `"streams"`, `"flight_events"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/debug/tcpls missing %s:\n%s", want, body)
		}
	}

	// Unregistration: after Close the session disappears from the page.
	// A second holder keeps the refcounted server alive across the Close.
	holder, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Telemetry:  TelemetryConfig{Addr: telAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	key := sess.debugKey
	sess.Close()
	if key == "" {
		t.Fatal("session never registered a debug key")
	}
	resp2, err := http.Get("http://" + addr + "/debug/tcpls")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(body2), key) {
		t.Fatalf("closed session %q still on /debug/tcpls", key)
	}
}

// TestChaosTraceArtifact produces the CI trace-analysis artifact: a
// two-path transfer through netem relays with one path RST mid-flight,
// traced live via TraceJSON with the flight dump appended — then
// `tcpls-trace -check` validates the file in the workflow. Skipped
// unless TCPLS_TRACE_OUT names the output path.
func TestChaosTraceArtifact(t *testing.T) {
	out := os.Getenv("TCPLS_TRACE_OUT")
	if out == "" {
		t.Skip("set TCPLS_TRACE_OUT to produce the trace artifact")
	}
	scfg := &Config{EnableFailover: true, AckPeriod: 4, NumCookies: 8,
		UserTimeout: 400 * time.Millisecond,
		Telemetry:   TelemetryConfig{Disabled: true}}
	srv := startChaosServer(t, scfg, echoHandler)

	prof := netem.Profile{RateBps: 60e6, Delay: 2 * time.Millisecond}
	relays := make([]*netem.Relay, 2)
	for i := range relays {
		r, err := netem.NewRelay(srv.ln.Addr().String(), prof, prof)
		if err != nil {
			t.Fatal(err)
		}
		relays[i] = r
		defer r.Close()
	}

	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sess, err := Dial("tcp", relays[0].Addr(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
		UserTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.TraceJSON(f)
	if _, err := sess.JoinPath("tcp", relays[1].Addr()); err != nil {
		t.Fatal(err)
	}
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}

	// Paced echo traffic across the fault: enough records on both sides
	// of the RST for per-path goodput to show the gap.
	chunk := make([]byte, 8<<10)
	buf := make([]byte, len(chunk))
	echo := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			if _, err := st.Write(chunk); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := io.ReadFull(st, buf); err != nil {
				t.Fatalf("read: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	echo(20)
	relays[0].Run(fault.Fault{Kind: fault.RST})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		ev, err := sess.WaitEvent(ctx)
		if err != nil {
			t.Fatalf("waiting for failover: %v", err)
		}
		if ev.Kind == EventFailover {
			break
		}
	}
	echo(20)

	// Stop the live trace (flushes the sink), then append the flight
	// dump — the analyzer accepts the concatenation and CI checks both
	// framings in one file.
	sess.TraceJSON(nil)
	if err := sess.DumpFlight(f); err != nil {
		t.Fatal(err)
	}

	// The artifact must satisfy the same -check gate CI runs.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	events, perr := qlog.Parse(bytes.NewReader(data))
	if perr != nil {
		t.Fatalf("artifact unparseable: %v", perr)
	}
	rep := qlog.Analyze(events, qlog.Options{MaxGap: 5 * time.Second})
	if len(rep.Violations) != 0 {
		t.Fatalf("artifact violations: %v", rep.Violations)
	}
	if len(rep.Failovers) == 0 {
		t.Fatal("artifact records no failover gap")
	}
}

// TestFlightDisabledAndAutoDump: a negative FlightCapacity disables the
// recorder; a session dying with an error auto-dumps to the configured
// FlightDump writer.
func TestFlightDisabledAndAutoDump(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)

	off, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Telemetry:  TelemetryConfig{FlightCapacity: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := off.DumpFlight(io.Discard); err == nil {
		t.Fatal("DumpFlight succeeded with the recorder disabled")
	}
	if snap := off.Snapshot(); snap.FlightTotal != 0 || snap.FlightEvents != 0 {
		t.Fatalf("disabled recorder reports events: %+v", snap)
	}
	off.Close()

	var dump syncBuffer
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Telemetry:  TelemetryConfig{FlightDump: &dump},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, _ := sess.OpenStream()
	st.Write([]byte("doomed"))
	io.ReadFull(st, make([]byte, 6))

	sess.mu.Lock()
	sess.drv.Fail(errors.New("injected death"))
	sess.mu.Unlock()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if events, err := qlog.Parse(strings.NewReader(dump.String())); err == nil && len(events) > 0 {
			rep := qlog.Analyze(events, qlog.Options{})
			if rep.Paths[0].RecordsSent == 0 {
				t.Fatalf("auto-dump reconstructs no sent records: %+v", rep.Paths)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no parseable auto-dump; got %q", dump.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
