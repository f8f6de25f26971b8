package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"tcpls/internal/telemetry"
)

// testClock is a manual clock for deterministic token-bucket tests.
// sleep records the wait without advancing time, so back-to-back
// AdmitConn calls model concurrent arrivals at one instant.
type testClock struct {
	now   time.Time
	slept []time.Duration
}

func newTestController(limits Limits, reg *Registry, budget *Budget) (*Controller, *testClock, *telemetry.ServerMetrics) {
	mreg := telemetry.NewRegistry()
	sm := telemetry.ServerFamiliesOn(mreg).Server("test")
	c := NewController(limits, reg, budget, sm)
	clk := &testClock{now: time.Unix(1000, 0)}
	c.now = func() time.Time { return clk.now }
	c.sleep = func(d time.Duration) { clk.slept = append(clk.slept, d) }
	return c, clk, sm
}

func addr(s string) net.Addr {
	return &net.TCPAddr{IP: net.ParseIP(s), Port: 12345}
}

func wantReject(t *testing.T, err error, reason string) {
	t.Helper()
	var re *RejectError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RejectError", err)
	}
	if re.Reason != reason {
		t.Fatalf("reject reason = %q, want %q", re.Reason, reason)
	}
}

func TestAdmitConnRateLimit(t *testing.T) {
	c, clk, sm := newTestController(Limits{AcceptRate: 10, AcceptBurst: 1}, nil, nil)
	// First conn: token available, no wait.
	rel, err := c.AdmitConn(addr("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if len(clk.slept) != 0 {
		t.Fatalf("unexpected sleep %v", clk.slept)
	}
	// Second conn immediately: next token is 100ms out — exactly the
	// default MaxAdmissionWait, so it is admitted after sleeping.
	rel, err = c.AdmitConn(addr("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if len(clk.slept) != 1 || clk.slept[0] != 100*time.Millisecond {
		t.Fatalf("slept %v, want [100ms]", clk.slept)
	}
	// Third conn: the bucket is in debt past the wait bound — reject
	// fast, never hang.
	_, err = c.AdmitConn(addr("10.0.0.1"))
	wantReject(t, err, ReasonAcceptRate)
	if got := sm.Rejected(ReasonAcceptRate).Load(); got != 1 {
		t.Fatalf("accept_rate rejects = %d, want 1", got)
	}
	if got := sm.AdmissionWait.Count(); got != 2 {
		t.Fatalf("admission wait samples = %d, want 2", got)
	}
	// A second of refill restores admission.
	clk.now = clk.now.Add(time.Second)
	if _, err := c.AdmitConn(addr("10.0.0.1")); err != nil {
		t.Fatalf("post-refill AdmitConn: %v", err)
	}
}

func TestAdmitConnPerIPHandshakes(t *testing.T) {
	c, _, sm := newTestController(Limits{MaxHandshakesPerIP: 2}, nil, nil)
	var rels []func()
	for i := 0; i < 2; i++ {
		rel, err := c.AdmitConn(addr("10.0.0.1"))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	_, err := c.AdmitConn(addr("10.0.0.1"))
	wantReject(t, err, ReasonIPHandshakes)
	// A different IP is unaffected.
	if _, err := c.AdmitConn(addr("10.0.0.2")); err != nil {
		t.Fatal(err)
	}
	// Releasing frees the slot; double-release must not double-free.
	rels[0]()
	rels[0]()
	if _, err := c.AdmitConn(addr("10.0.0.1")); err != nil {
		t.Fatalf("AdmitConn after release: %v", err)
	}
	if _, err := c.AdmitConn(addr("10.0.0.1")); err == nil {
		t.Fatal("double-release freed two slots")
	}
	if got := sm.Rejected(ReasonIPHandshakes).Load(); got != 2 {
		t.Fatalf("ip_handshakes rejects = %d, want 2", got)
	}
}

func TestAdmitJoinPerIPRate(t *testing.T) {
	c, clk, sm := newTestController(Limits{JoinRatePerIP: 1, JoinBurstPerIP: 2}, nil, nil)
	if !c.AdmitJoin(addr("10.0.0.1")) || !c.AdmitJoin(addr("10.0.0.1")) {
		t.Fatal("burst joins rejected")
	}
	if c.AdmitJoin(addr("10.0.0.1")) {
		t.Fatal("join admitted past the bucket")
	}
	if !c.AdmitJoin(addr("10.0.0.2")) {
		t.Fatal("other IP's join rejected")
	}
	clk.now = clk.now.Add(time.Second)
	if !c.AdmitJoin(addr("10.0.0.1")) {
		t.Fatal("join rejected after refill")
	}
	if got := sm.Rejected(ReasonIPJoins).Load(); got != 1 {
		t.Fatalf("ip_joins rejects = %d, want 1", got)
	}
}

func TestAdmitDraining(t *testing.T) {
	c, _, sm := newTestController(Limits{}, nil, nil)
	c.SetDraining(true)
	_, err := c.AdmitConn(addr("10.0.0.1"))
	wantReject(t, err, ReasonDraining)
	wantReject(t, c.AdmitSession(addr("10.0.0.1")), ReasonDraining)
	// Joins stay admitted: established sessions keep failover during a
	// graceful drain.
	if !c.AdmitJoin(addr("10.0.0.1")) {
		t.Fatal("join rejected while draining")
	}
	if got := sm.Rejected(ReasonDraining).Load(); got != 2 {
		t.Fatalf("draining rejects = %d, want 2", got)
	}
	c.SetDraining(false)
	if _, err := c.AdmitConn(addr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitSessionLimits(t *testing.T) {
	reg := NewRegistry(4)
	budget := NewBudget(reg, 1000, 400)
	c, _, sm := newTestController(Limits{MaxSessions: 2}, reg, budget)

	// Slot reservation: the cap binds at admission time, not at (later)
	// registration, so a thundering herd cannot overshoot it.
	if err := c.AdmitSession(addr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if err := c.AdmitSession(addr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	wantReject(t, c.AdmitSession(addr("10.0.0.1")), ReasonMaxSessions)
	if got := sm.Rejected(ReasonMaxSessions).Load(); got != 1 {
		t.Fatalf("max_sessions rejects = %d, want 1", got)
	}
	c.ReleaseSession()
	if err := c.AdmitSession(addr("10.0.0.1")); err != nil {
		t.Fatalf("AdmitSession after release: %v", err)
	}
	c.ReleaseSession()
	c.ReleaseSession()

	// Memory budget: a hot budget sheds and rolls the reserved slot
	// back.
	reg.Add(sid(3), &fakeSession{mem: 950})
	reg.Rollup()
	wantReject(t, c.AdmitSession(addr("10.0.0.1")), ReasonMemoryBudget)
	if got := sm.Rejected(ReasonMemoryBudget).Load(); got != 1 {
		t.Fatalf("memory_budget rejects = %d, want 1", got)
	}
	if got := c.sessions.Load(); got != 0 {
		t.Fatalf("session slots = %d after memory shed, want 0", got)
	}
}

func TestIPStateGC(t *testing.T) {
	c, clk, _ := newTestController(Limits{MaxHandshakesPerIP: 4}, nil, nil)
	for i := 0; i < ipGCThreshold+10; i++ {
		ip := net.IPv4(10, byte(i>>16), byte(i>>8), byte(i))
		rel, err := c.AdmitConn(&net.TCPAddr{IP: ip, Port: 1})
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	// All entries idle: the next admission past the threshold sweeps
	// them.
	clk.now = clk.now.Add(2 * ipIdleAfter)
	rel, err := c.AdmitConn(addr("10.9.9.9"))
	if err != nil {
		t.Fatal(err)
	}
	rel()
	c.mu.Lock()
	n := len(c.ips)
	c.mu.Unlock()
	if n > 2 {
		t.Fatalf("ip map holds %d entries after GC, want <= 2", n)
	}
}

func TestRejectErrorMessage(t *testing.T) {
	err := &RejectError{Reason: ReasonAcceptRate}
	if want := "tcpls/server: admission rejected (accept_rate)"; err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

// TestControllerWithoutRegistryBudgetOrMetrics holds NewController to
// its comment: nil reg, budget and sm are allowed, and every admission
// path then works without them, with and without the per-IP cap.
func TestControllerWithoutRegistryBudgetOrMetrics(t *testing.T) {
	for _, limits := range []Limits{
		{},
		{MaxHandshakesPerIP: 1, MaxSessions: 1, JoinRatePerIP: 1, JoinBurstPerIP: 1, AcceptRate: 1000},
	} {
		c := NewController(limits, nil, nil, nil)
		rel, err := c.AdmitConn(addr("10.0.0.1"))
		if err != nil {
			t.Fatalf("limits %+v: AdmitConn: %v", limits, err)
		}
		if limits.MaxHandshakesPerIP > 0 {
			_, err := c.AdmitConn(addr("10.0.0.1"))
			wantReject(t, err, ReasonIPHandshakes)
		}
		rel()
		if !c.AdmitJoin(addr("10.0.0.1")) {
			t.Fatalf("limits %+v: first join refused", limits)
		}
		if limits.JoinRatePerIP > 0 && c.AdmitJoin(addr("10.0.0.1")) {
			t.Fatal("join past the per-IP burst admitted")
		}
		if err := c.AdmitSession(addr("10.0.0.1")); err != nil {
			t.Fatalf("limits %+v: AdmitSession: %v", limits, err)
		}
		if limits.MaxSessions > 0 {
			wantReject(t, c.AdmitSession(addr("10.0.0.1")), ReasonMaxSessions)
		}
		c.ReleaseSession()
		c.SetDraining(true)
		_, err = c.AdmitConn(addr("10.0.0.1"))
		wantReject(t, err, ReasonDraining)
	}
}
