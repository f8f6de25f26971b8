package driver

import (
	"errors"
	"fmt"
	"time"
)

// ReconnectConfig tunes the recovery supervisor. The supervisor arms
// when the last connection of a failover-enabled session fails: the
// client re-dials its candidate addresses through the join routine
// (Fig. 3) in rounds with capped exponential backoff plus jitter, and
// the join resumes parked streams via failover replay (Fig. 4). The
// server side cannot dial the client, so it holds the parked state for
// Deadline waiting for the peer to rejoin. When the budget is exhausted
// the session dies with ErrSessionDead.
type ReconnectConfig struct {
	// Disabled turns automatic re-dialing off. Streams stay parked for
	// Deadline (an application can still join manually); then the
	// session dies with ErrSessionDead.
	Disabled bool
	// MaxAttempts bounds redial rounds (default 8; each round walks all
	// candidate addresses). Zero means the default, not unlimited.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff between redial rounds
	// (default 50ms). The first round fires immediately.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 3s).
	MaxDelay time.Duration
	// Deadline bounds the whole recovery, redialing or not (default 15s).
	Deadline time.Duration
}

// Recovery defaults.
const (
	DefaultReconnectAttempts = 8
	DefaultReconnectBase     = 50 * time.Millisecond
	DefaultReconnectMax      = 3 * time.Second
	DefaultReconnectDeadline = 15 * time.Second
	// redialTimeout bounds one redial's dial and join handshake.
	redialTimeout = 2 * time.Second
	// DrainTimeout bounds a drain: a dead peer cannot hold a session open.
	DrainTimeout = 10 * time.Second
)

// WithDefaults resolves the zero-valued fields.
func (rc ReconnectConfig) WithDefaults() ReconnectConfig {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = DefaultReconnectAttempts
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = DefaultReconnectBase
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = DefaultReconnectMax
	}
	if rc.MaxDelay < rc.BaseDelay {
		rc.MaxDelay = rc.BaseDelay
	}
	if rc.Deadline <= 0 {
		rc.Deadline = DefaultReconnectDeadline
	}
	return rc
}

// Delay returns the pause before redial round attempt (1-based). Round 1
// is immediate; round n waits BaseDelay·2^(n-2) capped at MaxDelay,
// jittered into [d/2, d] by rnd so a fleet of clients does not stampede
// the server the instant a shared outage lifts.
func (rc ReconnectConfig) Delay(attempt int, rnd func(int64) int64) time.Duration {
	if attempt <= 1 {
		return 0
	}
	d := rc.BaseDelay
	for i := 2; i < attempt && d < rc.MaxDelay; i++ {
		d *= 2
	}
	d = min(d, rc.MaxDelay)
	half := d / 2
	return half + time.Duration(rnd(int64(half)+1))
}

// EventKind classifies session lifecycle events.
type EventKind int

const (
	// ConnDown: a connection was declared failed (RST, timeout, or peer
	// notice). Failover or recovery may follow.
	ConnDown EventKind = iota + 1
	// FailoverDone: parked streams were resynchronized onto Conn.
	FailoverDone
	// Reconnecting: all paths are down; redial round Attempt starts.
	Reconnecting
	// Reconnected: recovery succeeded; Conn is the revived path.
	Reconnected
	// RecoveryFailed: the recovery budget is exhausted; the session is
	// dead and blocked calls return Err.
	RecoveryFailed
)

func (k EventKind) String() string {
	switch k {
	case ConnDown:
		return "conn_down"
	case FailoverDone:
		return "failover"
	case Reconnecting:
		return "reconnecting"
	case Reconnected:
		return "reconnected"
	case RecoveryFailed:
		return "recovery_failed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one lifecycle occurrence.
type Event struct {
	Kind    EventKind
	Conn    uint32 // affected or revived connection, where meaningful
	Attempt int    // redial round, for reconnect events
	Err     error  // terminal error, for RecoveryFailed
	Time    time.Time
}

// ErrSessionDead is the terminal error of an exhausted recovery: every
// path failed and neither failover nor reconnection could revive the
// session within its budget. Test with errors.Is; the concrete error is
// a *DeadError carrying the attempt count and last dial failure.
var ErrSessionDead = errors.New("tcpls: session dead")

// DeadError reports how recovery was lost.
type DeadError struct {
	// Attempts is the number of redial rounds performed (zero when
	// reconnection was disabled or the session was a server).
	Attempts int
	// LastErr is the final redial failure, if any.
	LastErr error
}

func (e *DeadError) Error() string {
	msg := "tcpls: session dead: recovery exhausted"
	if e.Attempts > 0 {
		msg = fmt.Sprintf("%s after %d reconnect attempts", msg, e.Attempts)
	}
	if e.LastErr != nil {
		msg = fmt.Sprintf("%s: %v", msg, e.LastErr)
	}
	return msg
}

func (e *DeadError) Unwrap() []error {
	errs := []error{ErrSessionDead}
	if e.LastErr != nil {
		errs = append(errs, e.LastErr)
	}
	return errs
}

var (
	errNoFailover = errors.New("tcpls: all connections failed and failover is disabled")
	errNoAddrs    = errors.New("tcpls: no remembered peer addresses")
)

// supervisor is the recovery state: redial rounds with backoff on the
// client, a grace wait for the peer's rejoin otherwise, and a terminal
// death when the budget runs out. Any connection that starts meanwhile
// — its own redial, a manual join, the peer's rejoin — stands it down.
type supervisor struct {
	on       bool
	rc       ReconnectConfig
	redial   bool
	attempt  int
	deadline time.Time
	lastErr  error
	queue    []string // this round's candidates not dialed yet
	dialing  *Conn
	stop     func()
}

// lost resolves a loss of connections. With a path still up nothing
// happens. A peer that said goodbye on every connection starts our
// drain, and a drain ends once its last connection has ended and its
// output is out — unless records wait for a failover. Otherwise, with
// failover the supervisor arms; without it the session dies at once
// rather than parking blocked callers forever.
func (d *Driver) lost() {
	if d.ended || d.sup.on {
		return
	}
	up, orderly, seen := false, true, false
	for _, c := range d.conns {
		up = up || c.entered && c.State <= Live // a fast join counts from its hello on
		orderly = orderly && c.State != Failed
		seen = seen || c.entered
	}
	switch {
	case up:
	case !d.goodbye && seen && orderly:
		d.Drain(DrainTimeout) // answer the peer's goodbye in order: what we owe it goes out first
	case d.goodbye && !d.stranded():
		if !d.busy() {
			d.end(nil)
		}
	case d.cfg.Reconnect == nil:
	case !d.cfg.Failover:
		d.die(0, errNoFailover)
	default:
		rc := d.cfg.Reconnect.WithDefaults()
		d.sup = supervisor{on: true, rc: rc, redial: d.cfg.Client && !rc.Disabled,
			deadline: d.clock.Now().Add(rc.Deadline)}
		d.sup.stop = d.clock.After(0, d.round)
	}
}

// round starts a redial round, or waits out the budget.
func (d *Driver) round() {
	s := &d.sup
	s.stop = nil
	if !s.on {
		return
	}
	if s.redial && len(d.Cookies) == 0 {
		// No connection left and no cookie to join one with: nothing can
		// revive the session, so it is dead now rather than at the deadline.
		d.die(s.attempt, ErrNoCookies)
		return
	}
	if s.redial && s.attempt < s.rc.MaxAttempts && d.clock.Now().Before(s.deadline) {
		s.attempt++
		s.queue = d.host.Candidates()
		d.Engine.Note("reconnect_attempt", 0, 0, uint64(s.attempt), len(s.queue))
		d.emit(Event{Kind: Reconnecting, Attempt: s.attempt})
		if len(s.queue) > 0 {
			d.nextDial()
			return
		}
		// Nothing to dial, ever: downgrade to the grace wait.
		s.lastErr, s.redial = errNoAddrs, false
	}
	d.roundOver()
}

// nextDial starts the round's next redial, one at a time.
func (d *Driver) nextDial() {
	s := &d.sup
	for s.on && s.dialing == nil && len(s.queue) > 0 {
		addr := s.queue[0]
		s.queue = s.queue[1:]
		now := d.clock.Now()
		deadline := now.Add(redialTimeout)
		if s.deadline.Before(deadline) {
			deadline = s.deadline
		}
		if !deadline.After(now) {
			continue
		}
		c, err := d.Join(addr, deadline)
		if err != nil {
			s.lastErr = err
			continue
		}
		s.dialing = c
		d.host.Dial(c)
		return
	}
	if s.on && s.dialing == nil {
		d.roundOver()
	}
}

// roundOver schedules the next round after the backoff, or declares the
// session dead.
func (d *Driver) roundOver() {
	s := &d.sup
	now := d.clock.Now()
	if !now.Before(s.deadline) || s.redial && s.attempt >= s.rc.MaxAttempts {
		d.die(s.attempt, s.lastErr)
		return
	}
	pause := s.deadline.Sub(now) + time.Millisecond // the grace wait runs to the deadline
	if s.redial {
		pause = min(pause, max(s.rc.Delay(s.attempt+1, d.clock.Int63n), 10*time.Millisecond))
	}
	s.stop = d.clock.After(pause, d.round)
}

// recovered stands the supervisor down on a revived path. The join
// itself resumes the parked streams (Start steps the failover policy).
func (d *Driver) recovered(c *Conn) {
	s := &d.sup
	if s.dialing == c {
		d.Engine.Note("reconnect_ok", c.ID, 0, uint64(s.attempt), 0)
	}
	if s.stop != nil {
		s.stop()
	}
	attempt := s.attempt
	d.sup = supervisor{}
	d.emit(Event{Kind: Reconnected, Conn: c.ID, Attempt: attempt})
}

// die ends recovery: the terminal event, then the session ends with a
// *DeadError so blocked calls surface ErrSessionDead.
func (d *Driver) die(attempts int, lastErr error) {
	err := &DeadError{Attempts: attempts, LastErr: lastErr}
	d.sup = supervisor{}
	d.Engine.Note("recovery_failed", 0, 0, uint64(attempts), 0)
	d.emit(Event{Kind: RecoveryFailed, Attempt: attempts, Err: err})
	d.end(err)
}
