package server

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcpls"
	"tcpls/internal/telemetry"
	"tcpls/internal/testutil"
)

// TestServerSoak is the fleet-scale gate: thousands of loopback
// sessions churned through one Server while a hold group stays
// resident. It asserts the properties the runtime exists for —
//
//   - goroutines stay flat after the ramp (no per-session leak),
//   - registry-reported memory stays inside the process budget,
//   - /metrics and /debug/tcpls answer mid-soak,
//   - admission sheds an overload burst with observable
//     tcpls_server_rejected_total counts,
//   - Shutdown drains byte-exact under load within its deadline.
//
// 5000 sessions by default (500 under -race); TCPLS_SOAK_SESSIONS
// overrides. Skipped in -short mode.
func TestServerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	total := soakDefaultSessions
	if env := os.Getenv("TCPLS_SOAK_SESSIONS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad TCPLS_SOAK_SESSIONS=%q", env)
		}
		total = n
	}
	const (
		holdN       = 96  // resident sessions, alive the whole soak
		workers     = 64  // concurrent churn dialers
		maxSessions = 128 // admission cap: holdN + 32 churn slots
		payloadSize = 4 << 10
	)

	base := runtime.NumGoroutine()
	mreg := telemetry.NewRegistry()
	cert, err := tcpls.NewCertificate("soak.server")
	if err != nil {
		t.Fatal(err)
	}
	// Per-session telemetry off on both ends: 5k sessions of sess-label
	// cardinality would measure the metrics registry, not the runtime.
	// The server-level tcpls_server_* families carry the soak's
	// observability.
	srvTCPLS := &tcpls.Config{
		Certificate: cert,
		Telemetry:   tcpls.TelemetryConfig{Disabled: true},
	}
	clientCfg := func() *tcpls.Config {
		return &tcpls.Config{
			ServerName: "soak.server",
			Telemetry:  tcpls.TelemetryConfig{Disabled: true},
			Reconnect:  tcpls.ReconnectConfig{Disabled: true, Deadline: 500 * time.Millisecond},
		}
	}
	srv := New(Config{
		TCPLS:           srvTCPLS,
		Limits:          Limits{MaxSessions: maxSessions},
		MemoryBudget:    512 << 20,
		RollupInterval:  100 * time.Millisecond,
		Handler:         Echo(),
		Name:            "soak",
		MetricsRegistry: mreg,
	})
	ln, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	hs, err := telemetry.Serve("127.0.0.1:0", mreg)
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	payload := make([]byte, payloadSize)
	rand.Read(payload)

	// Ramp: establish the resident hold group.
	hold := make([]*tcpls.Session, 0, holdN)
	defer func() {
		for _, s := range hold {
			s.Close()
		}
	}()
	for i := 0; i < holdN; i++ {
		sess, err := tcpls.Dial("tcp", addr, clientCfg())
		if err != nil {
			t.Fatalf("hold dial %d: %v", i, err)
		}
		hold = append(hold, sess)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Registry().Len() >= holdN })
	rampGoroutines := runtime.NumGoroutine()

	// Churn: cycle the remaining sessions through echo round-trips.
	churnTotal := total - holdN
	var churned, shed atomic.Int64
	var wg sync.WaitGroup
	next := make(chan struct{}, churnTotal)
	for i := 0; i < churnTotal; i++ {
		next <- struct{}{}
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range next {
				sess, err := tcpls.Dial("tcp", addr, clientCfg())
				if err != nil {
					shed.Add(1) // admission cut the handshake
					continue
				}
				if err := soakEcho(sess, payload); err != nil {
					shed.Add(1) // shed post-handshake: session died
				} else {
					churned.Add(1)
				}
				sess.Close()
			}
		}()
	}

	// Mid-soak: the observability endpoints must answer while the
	// server is at full load.
	midMetrics := httpGet(t, "http://"+hs.Addr()+"/metrics")
	if !strings.Contains(midMetrics, "tcpls_server_sessions") {
		t.Error("mid-soak /metrics missing tcpls_server_sessions")
	}
	midDebug := httpGet(t, "http://"+hs.Addr()+"/debug/tcpls")
	if !strings.Contains(midDebug, `"server:soak"`) {
		t.Error("mid-soak /debug/tcpls missing the server provider")
	}
	wg.Wait()

	if done := churned.Load() + shed.Load(); done != int64(churnTotal) {
		t.Fatalf("churn accounting: %d done, want %d", done, churnTotal)
	}
	if churned.Load() == 0 {
		t.Fatal("no churn session succeeded")
	}
	t.Logf("churn: %d ok, %d shed; accepted=%d",
		churned.Load(), shed.Load(), srv.sm.Accepted.Load())

	// Flatness: after churning total-holdN sessions through, the
	// goroutine count must sit back at the ramp plateau — any
	// per-session leak shows up multiplied by thousands here.
	waitFor(t, 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= rampGoroutines+workers/2
	})

	// Memory: the registry rollup, which feeds the budget, must be inside
	// it, and the heap must not have ratcheted with session count.
	if used := srv.Registry().MemoryBytes(); used >= 512<<20 {
		t.Fatalf("registry footprint %d past the 512 MiB budget", used)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 1<<30 {
		t.Fatalf("heap %d bytes after soak; per-session state is leaking", ms.HeapAlloc)
	}

	// Overload burst: more concurrent sessions than the admission cap
	// allows. The overflow must shed fast with observable rejects, not
	// hang.
	before := srv.sm.Rejected(ReasonMaxSessions).Load()
	burst := (maxSessions - holdN) + 48
	var burstWg sync.WaitGroup
	var burstHeld sync.Map
	for i := 0; i < burst; i++ {
		burstWg.Add(1)
		go func(i int) {
			defer burstWg.Done()
			sess, err := tcpls.Dial("tcp", addr, clientCfg())
			if err != nil {
				return
			}
			select {
			case <-sess.Done(): // shed: server closed it
				sess.Close()
			case <-time.After(2 * time.Second):
				burstHeld.Store(i, sess) // admitted: hold the slot
			}
		}(i)
	}
	burstWg.Wait()
	rejected := srv.sm.Rejected(ReasonMaxSessions).Load() - before
	if rejected == 0 {
		t.Fatal("overload burst produced no max_sessions rejects")
	}
	t.Logf("burst: %d sheds observable in tcpls_server_rejected_total", rejected)
	burstHeld.Range(func(_, v any) bool {
		v.(*tcpls.Session).Close()
		return true
	})

	// Drain under load: echoes riding on the hold group must complete
	// byte-exact while Shutdown runs, and the drain must finish inside
	// its deadline once the clients hang up.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	waitFor(t, 5*time.Second, func() bool { return srv.Admission().Draining() })
	var drainWg sync.WaitGroup
	drainFailures := make(chan error, len(hold))
	for _, sess := range hold {
		drainWg.Add(1)
		go func(sess *tcpls.Session) {
			defer drainWg.Done()
			if err := soakEcho(sess, payload); err != nil {
				drainFailures <- err
			}
			sess.Close()
		}(sess)
	}
	drainWg.Wait()
	close(drainFailures)
	for err := range drainFailures {
		t.Errorf("echo during drain: %v", err)
	}
	hold = nil
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown under load: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := srv.Registry().Len(); got != 0 {
		t.Fatalf("registry holds %d sessions after drain", got)
	}

	// qlog artifact for CI: one traced session against a fresh
	// listener, dumped wherever TCPLS_SOAK_QLOG points.
	if path := os.Getenv("TCPLS_SOAK_QLOG"); path != "" {
		writeSoakQlog(t, cert, payload, path)
	}

	hs.Close()
	testutil.CheckGoroutines(t, base)
}

// soakEcho round-trips payload on a fresh stream and verifies the echo
// byte-exact.
func soakEcho(sess *tcpls.Session, payload []byte) error {
	st, err := sess.OpenStream()
	if err != nil {
		return err
	}
	werr := make(chan error, 1)
	go func() {
		if _, err := st.Write(payload); err != nil {
			werr <- err
			return
		}
		werr <- st.Close()
	}()
	got, err := io.ReadAll(st)
	if err != nil {
		return err
	}
	if err := <-werr; err != nil {
		return err
	}
	if len(got) != len(payload) {
		return fmt.Errorf("echo length %d, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			return fmt.Errorf("echo corrupt at byte %d", i)
		}
	}
	return nil
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body)
}

// writeSoakQlog runs one fully-traced session against a throwaway echo
// server and writes its qlog trace to path — the CI artifact.
func writeSoakQlog(t *testing.T, cert *tcpls.Certificate, payload []byte, path string) {
	t.Helper()
	srv := New(Config{
		TCPLS:           &tcpls.Config{Certificate: cert},
		Handler:         Echo(),
		Name:            "soak-qlog",
		MetricsRegistry: telemetry.NewRegistry(),
	})
	ln, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tcpls.Dial("tcp", ln.Addr().String(), &tcpls.Config{ServerName: "soak.server"})
	if err != nil {
		t.Fatal(err)
	}
	// Install the live tracer before the traffic, stop it after — that
	// flushes the sink so the file holds the whole session.
	sess.TraceJSON(f)
	if err := soakEcho(sess, payload); err != nil {
		t.Errorf("qlog session echo: %v", err)
	}
	sess.TraceJSON(nil)
	f.Close()
	sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	<-done
}
