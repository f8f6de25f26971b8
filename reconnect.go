package tcpls

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"time"

	"tcpls/internal/driver"
)

// ReconnectConfig tunes the recovery supervisor (Config.Reconnect): on
// total path loss the client redials its peer's addresses through the
// join path, the server waits for the rejoin, and an exhausted budget
// kills the session with ErrSessionDead. See internal/driver.
type ReconnectConfig = driver.ReconnectConfig

// ErrSessionDead is the terminal error of an exhausted recovery; the
// concrete error is a *SessionDeadError. Test with errors.Is.
var ErrSessionDead = driver.ErrSessionDead

// SessionDeadError reports how recovery was lost: Attempts redial rounds
// (zero when reconnection was disabled or on a server) and LastErr, the
// final redial failure.
type SessionDeadError = driver.DeadError

// SessionEventKind classifies session lifecycle events.
type SessionEventKind = driver.EventKind

// Session lifecycle events.
const (
	EventConnDown       = driver.ConnDown       // a connection was declared failed; failover or recovery may follow
	EventFailover       = driver.FailoverDone   // parked streams were resynchronized onto Conn
	EventReconnecting   = driver.Reconnecting   // all paths are down; redial round Attempt starts
	EventReconnected    = driver.Reconnected    // recovery succeeded; Conn is the revived path
	EventRecoveryFailed = driver.RecoveryFailed // the recovery budget is spent; the session is dead
)

// SessionEvent is one lifecycle occurrence (Kind, Conn, Attempt, Err,
// Time), observable by polling Events or blocking in WaitEvent.
type SessionEvent = driver.Event

// sessionEventCap bounds the polling queue; old events drop first — the
// recent tail is what a late reader needs.
const sessionEventCap = 128

// Lifecycle queues a lifecycle event; the driver counts the recovery
// ones.
func (h *host) Lifecycle(ev SessionEvent) {
	s := (*Session)(h)
	if len(s.sessEvents) >= sessionEventCap {
		s.sessEvents = s.sessEvents[1:]
	}
	s.sessEvents = append(s.sessEvents, ev)
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
		if err := s.waitLocked(ctx, s.cond); err != nil {
			return SessionEvent{}, err
		}
	}
	ev := s.sessEvents[0]
	s.sessEvents = s.sessEvents[1:]
	return ev, nil
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

// Candidates lists redial targets in preference order: every address
// this session actually dialed, then ADD_ADDR-advertised addresses
// (which carry only an IP — they get the port of the first dialed
// address). Duplicates collapse.
func (h *host) Candidates() []string { return (*Session)(h).candidateAddrsLocked() }

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

// Dial is the supervisor's redial: a TCP dial and the join routine, both
// bounded by c.Deadline, on a goroutine of their own. A dial that never
// reached the server hands its cookie back.
func (h *host) Dial(c *driver.Conn) {
	s := (*Session)(h)
	network := cmp.Or(s.dialNetwork, "tcp")
	go func() {
		nc, err := net.DialTimeout(network, c.Addr, time.Until(c.Deadline))
		if err != nil {
			s.mu.Lock()
			s.drv.Abort(c, false, fmt.Errorf("tcpls: reconnect dial %s: %w", c.Addr, err))
			s.mu.Unlock()
			return
		}
		s.join(c, nc, network)
	}()
}
