package tcpls

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"tcpls/internal/handshake"
)

// ReconnectConfig tunes the recovery supervisor (Config.Reconnect). The
// supervisor arms when the last TCP connection of a failover-enabled
// TCPLS session fails: the client re-dials remembered peer addresses
// through the session-join path (Fig. 3) with capped exponential backoff
// plus jitter, and resumes parked streams via failover replay (Fig. 4)
// once a join lands. The server side cannot dial the client, so it holds
// the parked state for Deadline waiting for the peer to rejoin. When the
// budget is exhausted the session dies with ErrSessionDead.
type ReconnectConfig struct {
	// Disabled turns automatic re-dialing off. Streams stay parked for
	// Deadline (an application can still JoinPath manually); then the
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
	// Jitter, when non-nil, supplies the randomness for backoff jitter
	// instead of the process-global math/rand source, so reconnect
	// timing replays exactly under a fixed seed (the fleet/DES harness
	// derives one from its scenario seed). The source is used only from
	// the session's single recovery-supervisor goroutine; sharing one
	// *rand.Rand across sessions requires external locking and forfeits
	// per-session reproducibility.
	Jitter *rand.Rand
}

// Recovery defaults.
const (
	defaultReconnectAttempts = 8
	defaultReconnectBase     = 50 * time.Millisecond
	defaultReconnectMax      = 3 * time.Second
	defaultReconnectDeadline = 15 * time.Second
)

func (rc ReconnectConfig) withDefaults() ReconnectConfig {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = defaultReconnectAttempts
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = defaultReconnectBase
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = defaultReconnectMax
	}
	if rc.MaxDelay < rc.BaseDelay {
		rc.MaxDelay = rc.BaseDelay
	}
	if rc.Deadline <= 0 {
		rc.Deadline = defaultReconnectDeadline
	}
	return rc
}

// reconnectDelay returns the pause before redial round attempt (1-based).
// Round 1 is immediate; round n waits BaseDelay·2^(n-2) capped at
// MaxDelay, jittered into [d/2, d] so a fleet of clients does not
// stampede the server the instant a shared outage lifts.
func reconnectDelay(rc ReconnectConfig, attempt int) time.Duration {
	if attempt <= 1 {
		return 0
	}
	d := rc.BaseDelay
	for i := 2; i < attempt; i++ {
		d *= 2
		if d >= rc.MaxDelay {
			d = rc.MaxDelay
			break
		}
	}
	if d > rc.MaxDelay {
		d = rc.MaxDelay
	}
	half := d / 2
	if rc.Jitter != nil {
		return half + time.Duration(rc.Jitter.Int63n(int64(half)+1))
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// ErrSessionDead is the terminal error of an exhausted recovery: every
// path failed and neither failover nor reconnection could revive the
// session within its budget. Test with errors.Is; the concrete error is
// a *SessionDeadError carrying the attempt count and last dial failure.
var ErrSessionDead = errors.New("tcpls: session dead")

// SessionDeadError reports how recovery was lost.
type SessionDeadError struct {
	// Attempts is the number of redial rounds performed (zero when
	// reconnection was disabled or the session was a server).
	Attempts int
	// LastErr is the final redial failure, if any.
	LastErr error
}

func (e *SessionDeadError) Error() string {
	msg := "tcpls: session dead: recovery exhausted"
	if e.Attempts > 0 {
		msg = fmt.Sprintf("%s after %d reconnect attempts", msg, e.Attempts)
	}
	if e.LastErr != nil {
		msg = fmt.Sprintf("%s: %v", msg, e.LastErr)
	}
	return msg
}

func (e *SessionDeadError) Unwrap() []error {
	errs := []error{ErrSessionDead}
	if e.LastErr != nil {
		errs = append(errs, e.LastErr)
	}
	return errs
}

// SessionEventKind classifies session lifecycle events.
type SessionEventKind int

const (
	// EventConnDown: a TCP connection was declared failed (RST, timeout,
	// or peer notice). Failover/recovery may follow.
	EventConnDown SessionEventKind = iota + 1
	// EventFailover: parked streams were resynchronized onto the live
	// connection in Conn.
	EventFailover
	// EventReconnecting: all paths are down; redial round Attempt starts.
	EventReconnecting
	// EventReconnected: recovery succeeded; Conn is the revived path.
	EventReconnected
	// EventRecoveryFailed: the recovery budget is exhausted; the session
	// is dead and blocked calls return Err.
	EventRecoveryFailed
)

func (k SessionEventKind) String() string {
	switch k {
	case EventConnDown:
		return "conn_down"
	case EventFailover:
		return "failover"
	case EventReconnecting:
		return "reconnecting"
	case EventReconnected:
		return "reconnected"
	case EventRecoveryFailed:
		return "recovery_failed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// SessionEvent is one lifecycle occurrence, observable by polling
// Events, blocking in WaitEvent, or via the Config.OnEvent callback.
type SessionEvent struct {
	Kind    SessionEventKind
	Conn    uint32 // affected or revived connection, where meaningful
	Attempt int    // redial round, for reconnect events
	Err     error  // terminal error, for EventRecoveryFailed
	Time    time.Time
}

// sessionEventCap bounds the polling queue; old events drop first — the
// recent tail is what a late reader needs.
const sessionEventCap = 128

func (s *Session) emitSessionEventLocked(ev SessionEvent) {
	ev.Time = time.Now()
	if len(s.sessEvents) >= sessionEventCap {
		s.sessEvents = s.sessEvents[1:]
	}
	s.sessEvents = append(s.sessEvents, ev)
	if s.eventCh != nil {
		select {
		case s.eventCh <- ev:
		default: // callback consumer hopelessly behind; keep the session alive
		}
	}
	s.cond.Broadcast()
}

// Events drains queued session lifecycle events without blocking.
func (s *Session) Events() []SessionEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := s.sessEvents
	s.sessEvents = nil
	return evs
}

// WaitEvent blocks until a lifecycle event is available, the context is
// done, or the session closes with no events left.
func (s *Session) WaitEvent(ctx context.Context) (SessionEvent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.sessEvents) == 0 {
		if s.closed {
			return SessionEvent{}, s.closedErrLocked()
		}
		if err := s.waitLocked(ctx); err != nil {
			return SessionEvent{}, err
		}
	}
	ev := s.sessEvents[0]
	s.sessEvents = s.sessEvents[1:]
	return ev, nil
}

// eventLoop feeds Config.OnEvent on its own goroutine so a slow callback
// never blocks the protocol path.
func (s *Session) eventLoop() {
	defer s.wg.Done()
	for {
		select {
		case ev := <-s.eventCh:
			s.cfg.OnEvent(ev)
		case <-s.timerStop:
			for {
				select {
				case ev := <-s.eventCh:
					s.cfg.OnEvent(ev)
				default:
					return
				}
			}
		}
	}
}

// closedErrLocked is the error a blocked call reports on a closed
// session: the terminal cause when there is one, else the generic close.
func (s *Session) closedErrLocked() error {
	if s.closeErr != nil {
		return s.closeErr
	}
	return ErrSessionClosed
}

// rememberAddrLocked records a peer address for the recovery supervisor.
// Addresses that cannot be re-dialed (net.Pipe and friends) are ignored.
func (s *Session) rememberAddrLocked(addr string) {
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return
	}
	for _, a := range s.remoteAddrs {
		if a == addr {
			return
		}
	}
	s.remoteAddrs = append(s.remoteAddrs, addr)
}

// candidateAddrsLocked lists redial targets in preference order: every
// address this session actually dialed, then ADD_ADDR-advertised
// addresses (which carry only an IP — they get the port of the first
// dialed address). Duplicates collapse.
func (s *Session) candidateAddrsLocked() []string {
	seen := make(map[string]bool, len(s.remoteAddrs))
	var out []string
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range s.remoteAddrs {
		add(a)
	}
	var port string
	if len(s.remoteAddrs) > 0 {
		if _, p, err := net.SplitHostPort(s.remoteAddrs[0]); err == nil {
			port = p
		}
	}
	for _, a := range s.peerAddrs {
		ta, ok := a.(*net.TCPAddr)
		if !ok {
			continue
		}
		switch {
		case ta.Port != 0:
			add(ta.String())
		case port != "" && len(ta.IP) > 0:
			add(net.JoinHostPort(ta.IP.String(), port))
		}
	}
	return out
}

// maybeEnterRecoveryLocked resolves a session that has lost every path.
// If the peer closed every connection gracefully, the loss is an orderly
// goodbye and the session closes cleanly. Otherwise, with failover
// enabled the recovery supervisor arms (idempotent; no-op while one
// runs); without it there is nothing to recover with and the session
// dies immediately rather than parking blocked callers forever.
func (s *Session) maybeEnterRecoveryLocked() {
	if s.closed || s.recovering {
		return
	}
	if len(s.engine.Connections()) > 0 {
		return
	}
	graceful := len(s.conns) > 0
	for _, pc := range s.conns {
		if !pc.peerClosed {
			graceful = false
			break
		}
	}
	if graceful {
		s.failSessionLocked(nil)
		return
	}
	if !s.cfg.EnableFailover || s.cfg.DisableTCPLS {
		err := &SessionDeadError{LastErr: errNoFailover}
		s.engine.Note("recovery_failed", 0, 0, 0, 0)
		if s.tel != nil {
			s.tel.RecoveryFailures.Inc()
		}
		s.emitSessionEventLocked(SessionEvent{Kind: EventRecoveryFailed, Err: err})
		s.failSessionLocked(err)
		return
	}
	s.recovering = true
	rc := s.cfg.Reconnect.withDefaults()
	s.wg.Add(1)
	go s.recoveryLoop(rc)
}

// errNoFailover explains an immediate death on total path loss.
var errNoFailover = errors.New("tcpls: all connections failed and failover is disabled")

// recoveryLoop is the supervisor body: redial rounds with backoff on the
// client, a grace wait for the peer's rejoin otherwise, and a terminal
// declareDead when the budget runs out. It also notices paths revived by
// other means (manual JoinPath, server-side adoption) and stands down.
func (s *Session) recoveryLoop(rc ReconnectConfig) {
	defer s.wg.Done()
	deadline := time.Now().Add(rc.Deadline)
	canRedial := s.isClient && !rc.Disabled
	attempt := 0
	var lastErr error
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if live := s.engine.Connections(); len(live) > 0 {
			// A path came back behind our back (JoinPath, peer rejoin).
			s.finishRecoveryLocked(live[0], attempt)
			s.mu.Unlock()
			return
		}
		redialNow := canRedial && len(s.cookies) > 0 &&
			attempt < rc.MaxAttempts && time.Now().Before(deadline)
		var addrs []string
		if redialNow {
			attempt++
			addrs = s.candidateAddrsLocked()
			s.engine.Note("reconnect_attempt", 0, 0, uint64(attempt), len(addrs))
			if s.tel != nil {
				s.tel.ReconnectAttempts.Inc()
			}
			s.emitSessionEventLocked(SessionEvent{Kind: EventReconnecting, Attempt: attempt})
		}
		s.mu.Unlock()

		if redialNow {
			if len(addrs) == 0 {
				// Nothing to dial, ever: downgrade to the grace wait.
				lastErr = errors.New("tcpls: no remembered peer addresses")
				canRedial = false
			}
			for _, addr := range addrs {
				id, err := s.redial(addr, deadline)
				if err == nil {
					s.mu.Lock()
					s.engine.Note("reconnect_ok", id, 0, uint64(attempt), 0)
					s.finishRecoveryLocked(id, attempt)
					s.mu.Unlock()
					return
				}
				lastErr = err
				if errors.Is(err, ErrSessionClosed) {
					return
				}
			}
		}

		if !time.Now().Before(deadline) ||
			(canRedial && attempt >= rc.MaxAttempts) {
			s.declareDead(attempt, lastErr)
			return
		}

		var pause time.Duration
		if redialNow || canRedial {
			pause = reconnectDelay(rc, attempt+1)
		}
		if pause < 10*time.Millisecond {
			// Grace-wait poll, and a floor between redial rounds.
			pause = 10 * time.Millisecond
		}
		if rem := time.Until(deadline); pause > rem {
			pause = rem + time.Millisecond
		}
		select {
		case <-time.After(pause):
		case <-s.timerStop:
			return
		}
	}
}

// finishRecoveryLocked stands the supervisor down on a revived path. The
// join itself already resumed the parked streams (startJoinedConnLocked
// runs the failover policy on every added connection).
func (s *Session) finishRecoveryLocked(target uint32, attempt int) {
	s.recovering = false
	if s.tel != nil {
		s.tel.Reconnects.Inc()
	}
	s.emitSessionEventLocked(SessionEvent{Kind: EventReconnected, Conn: target, Attempt: attempt})
}

// declareDead ends recovery: terminal event, then the session fails with
// a *SessionDeadError so blocked Read/Write surface ErrSessionDead.
func (s *Session) declareDead(attempts int, lastErr error) {
	err := &SessionDeadError{Attempts: attempts, LastErr: lastErr}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.recovering = false
	s.engine.Note("recovery_failed", 0, 0, uint64(attempts), 0)
	if s.tel != nil {
		s.tel.RecoveryFailures.Inc()
	}
	s.emitSessionEventLocked(SessionEvent{Kind: EventRecoveryFailed, Attempt: attempts, Err: err})
	s.mu.Unlock()
	s.failSession(err)
}

// redial re-establishes one TCP connection through the join path, like
// JoinPath but outage-hardened: dial and handshake are bounded by the
// recovery deadline, and a cookie burned on a connection that never
// reached the server goes back to the pool.
func (s *Session) redial(addr string, deadline time.Time) (uint32, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrSessionClosed
	}
	if len(s.cookies) == 0 {
		s.mu.Unlock()
		return 0, ErrNoCookies
	}
	cookie := s.cookies[0]
	s.cookies = s.cookies[1:]
	connID := s.nextConnID
	s.nextConnID++
	s.engine.Note("cookie_consumed", connID, 0, 0, len(s.cookies))
	sessID := s.sessID
	sname := s.cfg.ServerName
	suites := s.cfg.Suites
	network := s.dialNetwork
	s.mu.Unlock()
	if network == "" {
		network = "tcp"
	}
	returnCookie := func() {
		s.mu.Lock()
		s.cookies = append([]Cookie{cookie}, s.cookies...)
		s.mu.Unlock()
	}

	timeout := 2 * time.Second
	if rem := time.Until(deadline); rem < timeout {
		timeout = rem
	}
	if timeout <= 0 {
		returnCookie()
		return 0, fmt.Errorf("tcpls: reconnect deadline exceeded")
	}
	nc, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		returnCookie()
		return 0, fmt.Errorf("tcpls: reconnect dial %s: %w", addr, err)
	}
	nc.SetDeadline(time.Now().Add(timeout))
	hcfg := &handshake.Config{
		Suites:     suites,
		ServerName: sname,
		Join:       &handshake.JoinTicket{SessID: sessID, Cookie: cookie, ConnID: connID},
	}
	tr := handshake.NewTransport(nc)
	if _, err := handshake.Client(tr, hcfg); err != nil {
		// The ClientHello reached the server, so the single-use cookie
		// must be assumed spent; do not return it.
		nc.Close()
		return 0, fmt.Errorf("tcpls: reconnect handshake %s: %w", addr, err)
	}
	nc.SetDeadline(time.Time{})

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return 0, ErrSessionClosed
	}
	if err := s.engine.AddConnection(connID, time.Now()); err != nil {
		s.mu.Unlock()
		nc.Close()
		return 0, err
	}
	s.startJoinedConnLocked(connID, nc, tr.Leftover())
	s.rememberAddrLocked(addr)
	s.mu.Unlock()
	return connID, nil
}
