package tcpls

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tcpls/internal/fault"
	"tcpls/internal/health"
	"tcpls/internal/netem"
	"tcpls/internal/qlog"
	"tcpls/internal/telemetry"
)

// healthPage mirrors the /debug/tcpls/health wire shape.
type healthPage struct {
	Health map[string]health.Status `json:"health"`
}

func fetchJSON(addr, path string, into any) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// waitHealth polls the live endpoint until pred accepts a snapshot.
func waitHealth(t *testing.T, addr string, deadline time.Duration,
	what string, pred func(map[string]health.Status) bool) map[string]health.Status {
	t.Helper()
	end := time.Now().Add(deadline)
	var last map[string]health.Status
	for time.Now().Before(end) {
		var page healthPage
		if err := fetchJSON(addr, "/debug/tcpls/health", &page); err == nil {
			last = page.Health
			if pred(page.Health) {
				return page.Health
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("health endpoint never showed %s; last snapshot: %+v", what, last)
	return nil
}

// TestHealthStallLiveDiagnosis is the acceptance test: a real transfer
// through a netem relay, a mid-stream stall, and the diagnosis observed
// LIVE over HTTP — StallSuspected raised with its zero-progress
// evidence window while the stall is in force, Healthy again after the
// relay resumes — then the same verdict timeline recovered from the
// flight recorder's qlog dump (the tcpls-trace -health path).
func TestHealthStallLiveDiagnosis(t *testing.T) {
	if testing.Short() {
		t.Skip("stall diagnosis needs real time")
	}
	base := runtime.NumGoroutine()

	ts, err := telemetry.Serve("127.0.0.1:0", telemetry.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	// The stall must stay below the user timeout: a failed connection is
	// a different diagnosis (and a different test).
	scfg := &Config{
		EnableFailover: true,
		AckPeriod:      4,
		UserTimeout:    10 * time.Second,
		Health:         HealthConfig{Interval: 25 * time.Millisecond},
	}
	srv := startChaosServer(t, scfg, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, st)
	})

	relay, err := netem.NewRelay(srv.ln.Addr().String(), netem.Profile{}, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	ccfg := &Config{
		ServerName:     "test.server",
		EnableFailover: true,
		AckPeriod:      4,
		UserTimeout:    10 * time.Second,
		Health:         HealthConfig{Interval: 25 * time.Millisecond},
	}
	sess, err := Dial("tcp", relay.Addr(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}

	// Paced writer: enough offered load that a stall leaves data
	// outstanding, little enough that buffered memory stays far under
	// the MemoryGrowth floor for the stall's duration.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := make([]byte, 8<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Write(chunk); err != nil {
				return
			}
			time.Sleep(4 * time.Millisecond)
		}
	}()

	// Find the client session's health key once it is sampling traffic.
	var key string
	waitHealth(t, ts.Addr(), 10*time.Second, "a ticking client monitor",
		func(h map[string]health.Status) bool {
			for k, st := range h {
				if strings.Contains(k, "-client-") && st.Ticks > 5 && st.GoodputTxBps > 0 {
					key = k
					return true
				}
			}
			return false
		})

	relay.Run(fault.Fault{Kind: fault.Stall})
	snap := waitHealth(t, ts.Addr(), 10*time.Second, "an active stall_suspected verdict",
		func(h map[string]health.Status) bool {
			st, ok := h[key]
			if !ok {
				return false
			}
			for _, v := range st.Active {
				if v.Name == "stall_suspected" {
					return true
				}
			}
			return false
		})

	// The raise transition carries the evidence window: exactly
	// StallTicks points of the progress series, all zero — the ticks
	// that tripped the rule, not a post-hoc reconstruction.
	var raise *health.Verdict
	for i := range snap[key].Recent {
		v := &snap[key].Recent[i]
		if v.Name == "stall_suspected" && v.Raised {
			raise = v
		}
	}
	if raise == nil {
		t.Fatal("stall_suspected active but no raise transition in Recent")
	}
	if len(raise.Evidence) != 3 {
		t.Fatalf("evidence window has %d points, want 3 (StallTicks)", len(raise.Evidence))
	}
	for i, p := range raise.Evidence {
		if p.V != 0 {
			t.Fatalf("evidence point %d shows progress %v during a full stall", i, p.V)
		}
	}
	if raise.Value <= 0 {
		t.Fatalf("raise carries no outstanding-bytes scalar: %v", raise.Value)
	}

	relay.Run(fault.Fault{Kind: fault.Unstall})
	waitHealth(t, ts.Addr(), 10*time.Second, "recovery to healthy",
		func(h map[string]health.Status) bool {
			st, ok := h[key]
			return ok && st.Healthy && len(st.Active) == 0
		})

	close(stop)
	wg.Wait()

	// The same timeline must be recoverable offline: dump the flight
	// recorder and run it through the qlog analyzer (tcpls-trace's
	// engine). TCPLS_HEALTH_QLOG keeps the artifact for CI upload.
	var buf bytes.Buffer
	if err := sess.DumpFlight(&buf); err != nil {
		t.Fatal(err)
	}
	if path := os.Getenv("TCPLS_HEALTH_QLOG"); path != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("write health qlog artifact: %v", err)
		}
	}
	events, perr := qlog.Parse(bytes.NewReader(buf.Bytes()))
	if perr != nil {
		t.Fatalf("flight dump does not parse: %v", perr)
	}
	rep := qlog.Analyze(events, qlog.Options{})
	if rep.Health.Events < 2 {
		t.Fatalf("qlog timeline has %d health transitions, want raise+clear at least", rep.Health.Events)
	}
	var sawRaise, sawClear bool
	for _, mk := range rep.Health.Timeline {
		if mk.Kind == "stall_suspected" {
			if mk.Raised {
				sawRaise = true
			} else {
				sawClear = true
			}
		}
	}
	if !sawRaise || !sawClear {
		t.Fatalf("qlog timeline missing stall transitions (raise=%v clear=%v): %+v",
			sawRaise, sawClear, rep.Health.Timeline)
	}
	if len(rep.Health.Open) != 0 {
		t.Fatalf("verdicts still open at dump end: %v", rep.Health.Open)
	}

	sess.Close()
	srv.Close()
	relay.Close()
	ts.Close()
	checkGoroutines(t, base)
}

// TestHealthScrapeRaces hammers /metrics and both debug endpoints from
// concurrent scrapers while sessions with a 2ms diagnosis tick are
// created, used, flight-dumped, and closed underneath them — the
// register/unregister, registry-entry fill and monitor-teardown races a
// production scrape loop would hit. Gated on zero goroutine leaks.
func TestHealthScrapeRaces(t *testing.T) {
	if testing.Short() {
		t.Skip("needs real sockets")
	}
	base := runtime.NumGoroutine()

	ts, err := telemetry.Serve("127.0.0.1:0", telemetry.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	scfg := &Config{
		EnableFailover: true,
		Health:         HealthConfig{Interval: 2 * time.Millisecond},
	}
	srv := startChaosServer(t, scfg, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		_, _ = io.Copy(st, st) // echo
	})

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/metrics", "/debug/tcpls", "/debug/tcpls/health"} {
		path := path
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			client := &http.Client{Timeout: 2 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get("http://" + ts.Addr() + path)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	for i := 0; i < 6; i++ {
		ccfg := &Config{
			ServerName:     "test.server",
			EnableFailover: true,
			Health:         HealthConfig{Interval: 2 * time.Millisecond},
		}
		sess, err := Dial("tcp", srv.ln.Addr().String(), ccfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sess.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		msg := bytes.Repeat([]byte{byte(i)}, 32<<10)
		if _, err := st.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(st, got); err != nil {
			t.Fatal(err)
		}
		// Dump the flight recorder while the session is being closed —
		// the postmortem race closeTelemetryLocked must survive.
		var dumps sync.WaitGroup
		dumps.Add(1)
		go func() {
			defer dumps.Done()
			_ = sess.DumpFlight(io.Discard)
		}()
		sess.Close()
		dumps.Wait()
	}

	close(stop)
	scrapers.Wait()
	srv.Close()
	ts.Close()
	checkGoroutines(t, base)
}

// TestHealthMidFailoverSampling runs the 2ms sampler straight through a
// connection failure and failover: two relay paths, an RST on one
// mid-transfer, the byte stream verified end to end, the health
// endpoint decoding cleanly throughout. The sampler walks the conn
// table under the session lock while the failover machinery rewrites it
// — this is the interleaving the test pins down.
func TestHealthMidFailoverSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("failover needs real time")
	}
	base := runtime.NumGoroutine()

	ts, err := telemetry.Serve("127.0.0.1:0", telemetry.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	scfg := &Config{
		EnableFailover: true,
		AckPeriod:      4,
		UserTimeout:    400 * time.Millisecond,
		NumCookies:     16,
		Health:         HealthConfig{Interval: 2 * time.Millisecond},
	}
	srv := startChaosServer(t, scfg, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		buf := make([]byte, 32<<10)
		var total uint64
		for {
			n, err := st.Read(buf)
			total += uint64(n)
			if err != nil {
				return
			}
		}
	})

	prof := netem.Profile{RateBps: 60e6, Delay: time.Millisecond}
	var relays [2]*netem.Relay
	for i := range relays {
		r, err := netem.NewRelay(srv.ln.Addr().String(), prof, prof)
		if err != nil {
			t.Fatal(err)
		}
		relays[i] = r
		defer r.Close()
	}

	ccfg := &Config{
		ServerName:     "test.server",
		EnableFailover: true,
		AckPeriod:      4,
		UserTimeout:    400 * time.Millisecond,
		Health:         HealthConfig{Interval: 2 * time.Millisecond},
	}
	sess, err := Dial("tcp", relays[0].Addr(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", relays[1].Addr()); err != nil {
		t.Fatal(err)
	}
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}

	// Write through the fault: RST the first path a few chunks in; the
	// stream must fail over and every remaining write succeed.
	chunk := make([]byte, 16<<10)
	for i := 0; i < 64; i++ {
		if _, err := st.Write(chunk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i == 8 {
			relays[0].Run(fault.Fault{Kind: fault.RST})
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}

	// The endpoint must still decode, and the client monitor must have
	// sampled across the failure (hundreds of 2ms ticks).
	waitHealth(t, ts.Addr(), 5*time.Second, "a client monitor that sampled through failover",
		func(h map[string]health.Status) bool {
			for k, st := range h {
				if strings.Contains(k, "-client-") && st.Ticks > 50 {
					return true
				}
			}
			return false
		})

	sess.Close()
	srv.Close()
	for _, r := range relays {
		r.Close()
	}
	ts.Close()
	checkGoroutines(t, base)
}

// TestHealthSessionPollAllocFree is the root-level zero-alloc gate: one
// diagnosis tick over a REAL session — engine Snapshot into the
// monitor's reused rows, ring pushes, rule table — allocates nothing in
// steady state. The internal/health test proves the monitor core; this
// proves the session source feeding it.
func TestHealthSessionPollAllocFree(t *testing.T) {
	scfg := &Config{
		EnableFailover: true,
		// Park the shared engine far away: the test drives Poll by hand.
		Health: HealthConfig{Interval: time.Hour},
	}
	srv := startChaosServer(t, scfg, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		_, _ = io.Copy(st, st)
	})
	ccfg := &Config{
		ServerName:     "test.server",
		EnableFailover: true,
		Health:         HealthConfig{Interval: time.Hour},
	}
	sess, err := Dial("tcp", srv.ln.Addr().String(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64<<10)
	if _, err := st.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(st, msg); err != nil {
		t.Fatal(err)
	}
	// Let the ack tail drain so no rule transitions mid-measurement.
	deadline := time.Now().Add(2 * time.Second)
	for sess.Snapshot().RetransmitBytes > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	sess.mu.Lock()
	mon := sess.healthMon
	sess.mu.Unlock()
	if mon == nil {
		t.Fatal("session has no health monitor")
	}
	for i := 0; i < 8; i++ {
		mon.Poll(time.Now())
	}
	if n := testing.AllocsPerRun(100, func() { mon.Poll(time.Now()) }); n != 0 {
		t.Fatalf("session health poll allocates %v per tick in steady state", n)
	}
}
