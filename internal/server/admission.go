package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tcpls/internal/telemetry"
)

// Limits tunes the accept-edge admission controller. The zero value
// disables every limit (admit everything).
type Limits struct {
	// AcceptRate caps new-handshake admission at this many per second
	// via a token bucket; 0 disables rate limiting.
	AcceptRate float64
	// AcceptBurst is the token bucket depth (default: AcceptRate
	// rounded up, minimum 1).
	AcceptBurst int
	// MaxAdmissionWait bounds how long AdmitConn blocks waiting for an
	// accept token before rejecting outright (default 100ms). The wait
	// is the backpressure; the bound keeps a flood from stacking up
	// goroutines behind the bucket.
	MaxAdmissionWait time.Duration
	// MaxHandshakesPerIP caps concurrent in-flight handshakes from one
	// remote IP; 0 disables.
	MaxHandshakesPerIP int
	// JoinRatePerIP caps cookie/join attempts per second from one
	// remote IP (token bucket, burst JoinBurstPerIP); 0 disables.
	JoinRatePerIP float64
	// JoinBurstPerIP is the per-IP join bucket depth (default:
	// JoinRatePerIP rounded up, minimum 1).
	JoinBurstPerIP int
	// MaxSessions caps registered sessions; 0 disables.
	MaxSessions int
}

// defaultMaxAdmissionWait bounds the accept-token wait when
// Limits.MaxAdmissionWait is zero.
const defaultMaxAdmissionWait = 100 * time.Millisecond

// Rejection reasons, as they appear in the reason label of
// tcpls_server_rejected_total and in RejectError.Reason.
const (
	ReasonDraining     = "draining"
	ReasonAcceptRate   = "accept_rate"
	ReasonIPHandshakes = "ip_handshakes"
	ReasonIPJoins      = "ip_joins"
	ReasonMaxSessions  = "max_sessions"
	ReasonMemoryBudget = "memory_budget"
)

// RejectError is a typed admission rejection; Reason matches the
// metric label so operators can correlate logs with
// tcpls_server_rejected_total.
type RejectError struct {
	Reason string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("tcpls/server: admission rejected (%s)", e.Reason)
}

// Pre-allocated rejections: the accept edge under flood should not
// allocate per rejected connection.
var (
	errDraining     = &RejectError{Reason: ReasonDraining}
	errAcceptRate   = &RejectError{Reason: ReasonAcceptRate}
	errIPHandshakes = &RejectError{Reason: ReasonIPHandshakes}
	errMaxSessions  = &RejectError{Reason: ReasonMaxSessions}
	errMemoryBudget = &RejectError{Reason: ReasonMemoryBudget}
)

// tokenBucket is a monotonic-clock token bucket that can run a
// bounded debt: take returns how long the caller must wait for its
// token, letting the admission path choose between sleeping (small
// waits — backpressure) and rejecting (large waits — shedding).
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = rate
		if b < 1 {
			b = 1
		}
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b}
}

// take removes one token, returning the wait until that token is
// actually available (0 when the bucket had one spare). maxDebt bounds
// how far negative the bucket may go; past it take returns false and
// leaves the bucket untouched.
func (tb *tokenBucket) take(now time.Time, maxWait time.Duration) (time.Duration, bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if !tb.last.IsZero() {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return 0, true
	}
	// Debt: the next token arrives (1 - tokens)/rate from now. Admit
	// with that wait if it fits the bound, else reject without
	// consuming anything.
	wait := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
	if wait > maxWait {
		return 0, false
	}
	tb.tokens--
	return wait, true
}

// allow is take with no willingness to wait (join gating is a
// yes/no — the handshake can't pause mid-join).
func (tb *tokenBucket) allow(now time.Time) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if !tb.last.IsZero() {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

// ipState is one remote IP's accounting: concurrent in-flight
// handshakes and the join-attempt bucket.
type ipState struct {
	handshakes int
	joins      *tokenBucket
	lastSeen   time.Time
}

// ipGCThreshold triggers an idle-entry sweep once the per-IP map
// grows past it, bounding state a scanning flood can pin.
const (
	ipGCThreshold = 4096
	ipIdleAfter   = time.Minute
)

// Controller implements tcpls.AdmissionControl for a Server: accept
// rate limiting, per-IP caps, session-count and memory-budget
// shedding, and the draining gate. All methods are safe for concurrent
// use from the listener's per-connection goroutines.
type Controller struct {
	limits Limits
	accept *tokenBucket // nil when unlimited
	budget *Budget
	reg    *Registry
	sm     *telemetry.ServerMetrics // nil-safe

	// now is the clock, swappable in tests.
	now func() time.Time
	// sleep waits out an admission delay, swappable in tests.
	sleep func(time.Duration)

	// sessions counts admitted-but-not-yet-released sessions. The cap
	// is enforced here, not against the registry: registration happens
	// a few steps after admission, and a thundering herd must not
	// overshoot MaxSessions through that window.
	sessions atomic.Int64

	mu       sync.Mutex
	draining bool
	ips      map[string]*ipState
}

// NewController builds a standalone admission controller. reg and
// budget may be nil (disables session-count and memory shedding); sm
// may be nil (disables metrics).
func NewController(limits Limits, reg *Registry, budget *Budget, sm *telemetry.ServerMetrics) *Controller {
	if limits.MaxAdmissionWait <= 0 {
		limits.MaxAdmissionWait = defaultMaxAdmissionWait
	}
	return &Controller{
		limits: limits,
		accept: newTokenBucket(limits.AcceptRate, limits.AcceptBurst),
		budget: budget,
		reg:    reg,
		sm:     sm,
		now:    time.Now,
		sleep:  time.Sleep,
		ips:    make(map[string]*ipState),
	}
}

// SetDraining flips the drain gate: once set, AdmitConn and
// AdmitSession reject everything with ReasonDraining.
func (c *Controller) SetDraining(v bool) {
	c.mu.Lock()
	c.draining = v
	c.mu.Unlock()
}

// Draining reports the drain gate.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// ipKey maps a remote address to its per-IP accounting key (the bare
// IP, so every ephemeral port of one host shares a bucket).
func ipKey(remote net.Addr) string {
	if remote == nil {
		return ""
	}
	host, _, err := net.SplitHostPort(remote.String())
	if err != nil {
		return remote.String()
	}
	return host
}

// ipFor resolves (creating if needed) the state for remote's IP,
// sweeping idle entries when the map is large. Caller holds c.mu.
func (c *Controller) ipForLocked(key string, now time.Time) *ipState {
	if len(c.ips) > ipGCThreshold {
		for k, st := range c.ips {
			if st.handshakes == 0 && now.Sub(st.lastSeen) > ipIdleAfter {
				delete(c.ips, k)
			}
		}
	}
	st, ok := c.ips[key]
	if !ok {
		st = &ipState{}
		c.ips[key] = st
	}
	st.lastSeen = now
	return st
}

// AdmitConn implements tcpls.AdmissionControl: the drain gate, the
// accept token bucket (bounded wait as backpressure), and the per-IP
// concurrent-handshake cap.
func (c *Controller) AdmitConn(remote net.Addr) (func(), error) {
	if c.Draining() {
		c.sm.Rejected(ReasonDraining).Inc()
		return nil, errDraining
	}
	now := c.now()
	if c.accept != nil {
		wait, ok := c.accept.take(now, c.limits.MaxAdmissionWait)
		if !ok {
			c.sm.Rejected(ReasonAcceptRate).Inc()
			return nil, errAcceptRate
		}
		if c.sm != nil {
			c.sm.AdmissionWait.Observe(wait.Seconds())
		}
		if wait > 0 {
			c.sleep(wait)
		}
	}
	if c.limits.MaxHandshakesPerIP <= 0 {
		c.noteHandshakes(1)
		return func() { c.noteHandshakes(-1) }, nil
	}
	key := ipKey(remote)
	c.mu.Lock()
	st := c.ipForLocked(key, now)
	if st.handshakes >= c.limits.MaxHandshakesPerIP {
		c.mu.Unlock()
		c.sm.Rejected(ReasonIPHandshakes).Inc()
		return nil, errIPHandshakes
	}
	st.handshakes++
	c.mu.Unlock()
	c.noteHandshakes(1)
	var once sync.Once
	release := func() {
		once.Do(func() {
			c.noteHandshakes(-1)
			c.mu.Lock()
			if st := c.ips[key]; st != nil && st.handshakes > 0 {
				st.handshakes--
			}
			c.mu.Unlock()
		})
	}
	return release, nil
}

// noteHandshakes moves the in-flight handshake gauge; a controller
// built without metrics has none.
func (c *Controller) noteHandshakes(delta int64) {
	if c.sm != nil {
		c.sm.Handshakes.Add(delta)
	}
}

// AdmitJoin implements tcpls.AdmissionControl: the per-IP join-rate
// bucket. The drain gate deliberately does NOT reject joins —
// established sessions keep their failover/reconnect path during a
// graceful drain.
func (c *Controller) AdmitJoin(remote net.Addr) bool {
	if c.limits.JoinRatePerIP <= 0 {
		return true
	}
	now := c.now()
	key := ipKey(remote)
	c.mu.Lock()
	st := c.ipForLocked(key, now)
	if st.joins == nil {
		st.joins = newTokenBucket(c.limits.JoinRatePerIP, c.limits.JoinBurstPerIP)
	}
	tb := st.joins
	c.mu.Unlock()
	if tb.allow(now) {
		return true
	}
	c.sm.Rejected(ReasonIPJoins).Inc()
	return false
}

// AdmitSession implements tcpls.AdmissionControl: sheds new sessions
// while draining, past MaxSessions, or with the memory budget hot. A
// successful admission reserves a session slot; the serving layer must
// pair it with ReleaseSession when the session retires.
func (c *Controller) AdmitSession(remote net.Addr) error {
	if c.Draining() {
		c.sm.Rejected(ReasonDraining).Inc()
		return errDraining
	}
	for {
		n := c.sessions.Load()
		if c.limits.MaxSessions > 0 && n >= int64(c.limits.MaxSessions) {
			c.sm.Rejected(ReasonMaxSessions).Inc()
			return errMaxSessions
		}
		if c.sessions.CompareAndSwap(n, n+1) {
			break
		}
	}
	if c.budget != nil && c.budget.Hot() {
		c.sessions.Add(-1)
		c.sm.Rejected(ReasonMemoryBudget).Inc()
		return errMemoryBudget
	}
	return nil
}

// ReleaseSession returns an AdmitSession slot when its session
// retires.
func (c *Controller) ReleaseSession() {
	c.sessions.Add(-1)
}
