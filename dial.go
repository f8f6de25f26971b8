package tcpls

import (
	"errors"
	"fmt"
	"net"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/handshake"
)

// Dial establishes a TCPLS session to addr: TCP connect, TLS 1.3-shaped
// handshake with the TCPLS Hello extension, then the session is ready
// for streams. With cfg.DisableTCPLS the result is plain TLS over TCP
// carrying a single implicit byte stream.
//
// Explicit fallback (paper §5.2): when the handshake dies on the wire —
// an overly strict firewall answering the TCPLS ClientHello with a RST,
// or a legacy server aborting on unknown extensions — Dial retries once
// as plain TLS, unless the failure was a protocol-level rejection (bad
// certificate, bad Finished), which a retry cannot fix.
func Dial(network, addr string, cfg *Config) (*Session, error) {
	if cfg != nil {
		if err := cfg.validateScheduler(); err != nil {
			return nil, err
		}
	}
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	sess, err := Client(nc, cfg)
	if err == nil || cfg != nil && cfg.DisableTCPLS || !isWireFailure(err) {
		return sess, err
	}
	// Retry without the TCPLS Hello extension.
	nc, err2 := net.Dial(network, addr)
	if err2 != nil {
		return nil, err
	}
	fcfg := cfg.clone()
	fcfg.DisableTCPLS = true
	return Client(nc, fcfg)
}

// isWireFailure distinguishes transport-level aborts (retryable as plain
// TLS) from authenticated protocol rejections (not retryable).
func isWireFailure(err error) bool {
	switch {
	case errors.Is(err, handshake.ErrBadFinished),
		errors.Is(err, handshake.ErrBadSignature),
		errors.Is(err, handshake.ErrUntrustedKey),
		errors.Is(err, handshake.ErrJoinRejected):
		return false
	}
	return true
}

// Client runs the client side of a TCPLS session over an established
// connection (Happy-Eyeballs-style callers dial their own sockets,
// §4.6).
func Client(nc net.Conn, cfg *Config) (*Session, error) {
	cfg = cfg.clone()
	if err := cfg.validateScheduler(); err != nil {
		nc.Close()
		return nil, err
	}
	hcfg := &handshake.Config{
		Suites:      cfg.Suites,
		ServerName:  cfg.ServerName,
		RootKeys:    cfg.RootKeys,
		EnableTCPLS: !cfg.DisableTCPLS,
	}
	offerEarly := false
	wantEarly := false
	if cfg.Ticket != nil {
		hcfg.PSK = cfg.Ticket.PSK
		hcfg.PSKTicket = cfg.Ticket.Ticket
		if len(cfg.EarlyData) > 0 && !cfg.DisableTCPLS {
			// 0-RTT: the flight rides behind the ClientHello, clamped to
			// the budget the ticket advertised — an oversized offer would
			// only be drained and retracted server-side, so it goes out at
			// 1-RTT directly. On rejection the same bytes are resent at
			// 1-RTT below — the application sees an identical stream
			// either way.
			wantEarly = true
			if len(cfg.EarlyData) <= int(cfg.Ticket.MaxEarlyData) {
				hcfg.EarlyData = cfg.EarlyData
				offerEarly = true
			}
		}
	}
	tr := handshake.NewTransport(nc)
	res, err := handshake.Client(tr, hcfg)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if !cfg.DisableTCPLS && !res.TCPLSEnabled {
		// Implicit fallback (paper §5.2): the server is plain TLS. The
		// session still works, without TCPLS transport services.
		cfg.DisableTCPLS = true
	}
	// The early-data stream opens inside newSession, before the server's
	// first bytes reach the engine: on acceptance its bytes are already
	// home, on rejection (or an offer clamped away entirely) it carries the
	// lossless 1-RTT resend. A failure to open it is a failure to deliver
	// cfg.EarlyData at all — surface it rather than drop the bytes.
	sess := newSession(true, cfg, res, nc, tr.Leftover(), wantEarly)
	if wantEarly {
		st, ok := sess.EarlyStream()
		if !ok {
			sess.Close()
			return nil, errors.New("tcpls: early-data stream could not be opened")
		}
		if !res.EarlyDataAccepted {
			if offerEarly {
				sess.noteTrace("early_data_rejected", 0, 0, len(cfg.EarlyData))
			}
			if _, werr := st.Write(cfg.EarlyData); werr != nil {
				sess.Close()
				return nil, werr
			}
		}
	}
	return sess, nil
}

// JoinPath opens an additional TCP connection to addr and joins it to
// the session using one of the server's single-use cookies (Fig. 3).
// It returns the new connection's engine ID, usable with OpenStreamOn,
// Failover, and the scheduler.
func (s *Session) JoinPath(network, addr string) (uint32, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrSessionClosed
	}
	if s.cfg.DisableTCPLS {
		s.mu.Unlock()
		return 0, ErrNotTCPLS
	}
	if len(s.cookies) == 0 {
		s.mu.Unlock()
		return 0, ErrNoCookies
	}
	cookie := s.cookies[0]
	s.cookies = s.cookies[1:]
	connID := s.nextConnID
	s.nextConnID++
	sessID := s.sessID
	sname := s.cfg.ServerName
	suites := s.cfg.Suites
	s.engine.Note("cookie_consumed", connID, 0, 0, len(s.cookies))
	s.mu.Unlock()

	nc, err := net.Dial(network, addr)
	if err != nil {
		return 0, fmt.Errorf("tcpls: join dial: %w", err)
	}
	hcfg := &handshake.Config{
		Suites:     suites,
		ServerName: sname,
		Join:       &handshake.JoinTicket{SessID: sessID, Cookie: cookie, ConnID: connID},
	}
	tr := handshake.NewTransport(nc)
	if _, err := handshake.Client(tr, hcfg); err != nil {
		nc.Close()
		return 0, fmt.Errorf("tcpls: join handshake: %w", err)
	}

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
	if s.dialNetwork == "" {
		s.dialNetwork = network
	}
	s.rememberAddrLocked(addr)
	s.mu.Unlock()
	return connID, nil
}

// JoinPathFast opens an additional TCP connection and joins it to the
// session in a single flight: the join ClientHello, a STREAM_ATTACH for
// a fresh stream, and early (the stream's first bytes) all ride the
// client's first flight, protected by the session's established keys.
// The connection is productive one round trip sooner than JoinPath — the
// server can deliver early to the application before its own first byte
// reaches the client.
//
// The optimistic flight is a bet on the cookie being accepted. With
// EnableFailover a rejection is lossless: the stream's records replay
// onto a surviving connection. Without failover, a non-empty early falls
// back internally to the ordinary two-flight join so no bytes can be
// lost. The returned stream is nil when early is empty.
func (s *Session) JoinPathFast(network, addr string, early []byte) (uint32, *Stream, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, nil, ErrSessionClosed
	}
	if s.cfg.DisableTCPLS {
		s.mu.Unlock()
		return 0, nil, ErrNotTCPLS
	}
	if len(s.cookies) == 0 {
		s.mu.Unlock()
		return 0, nil, ErrNoCookies
	}
	if len(early) > 0 && !s.cfg.EnableFailover {
		s.mu.Unlock()
		connID, err := s.JoinPath(network, addr)
		if err != nil {
			return 0, nil, err
		}
		st, err := s.OpenStreamOn(connID)
		if err != nil {
			return connID, nil, err
		}
		if _, err := st.Write(early); err != nil {
			return connID, st, err
		}
		return connID, st, nil
	}
	cookie := s.cookies[0]
	s.cookies = s.cookies[1:]
	connID := s.nextConnID
	s.nextConnID++
	sessID := s.sessID
	suites := s.cfg.Suites
	s.engine.Note("cookie_consumed", connID, 0, 0, len(s.cookies))
	s.mu.Unlock()

	nc, err := net.Dial(network, addr)
	if err != nil {
		return 0, nil, fmt.Errorf("tcpls: join dial: %w", err)
	}
	tr := handshake.NewTransport(nc)
	hcfg := &handshake.Config{
		Suites: suites,
		Join:   &handshake.JoinTicket{SessID: sessID, Cookie: cookie, ConnID: connID},
	}
	if err := handshake.StartFastJoin(tr, hcfg); err != nil {
		nc.Close()
		return 0, nil, fmt.Errorf("tcpls: fast join: %w", err)
	}

	// Build the optimistic flight. The connection is registered with the
	// engine but not yet with the session (no reader/writer loops, not in
	// s.conns), so concurrent flushes cannot race us for its outgoing
	// queue and nothing consumes the server's plaintext ack early.
	var st *Stream
	var flight []byte
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return 0, nil, ErrSessionClosed
	}
	if err := s.engine.AddConnection(connID, time.Now()); err != nil {
		s.mu.Unlock()
		nc.Close()
		return 0, nil, err
	}
	s.engine.Note("join_fastpath", connID, 0, 0, len(early))
	if len(early) > 0 {
		sid, serr := s.engine.CreateStream(connID)
		if serr == nil {
			st = &Stream{sess: s, id: sid}
			s.streams[sid] = st
			_, serr = s.engine.Write(sid, early)
		}
		if serr == nil {
			if ferr := s.engine.Flush(); ferr != nil && ferr != core.ErrNotCoupled {
				serr = ferr
			}
		}
		if serr == nil {
			flight, serr = s.engine.Outgoing(connID)
		}
		if serr != nil {
			s.mu.Unlock()
			nc.Close()
			return 0, st, serr
		}
	}
	s.mu.Unlock()

	if len(flight) > 0 {
		_, werr := nc.Write(flight)
		now := time.Now()
		s.mu.Lock()
		if werr == nil {
			s.engine.NoteWritten(connID, now)
		} else {
			s.engine.NoteWriteDropped(connID)
		}
		s.engine.RecycleOutgoing(flight)
		s.mu.Unlock()
		if werr != nil {
			nc.Close()
			s.reportFastJoinFailed(connID)
			return 0, st, fmt.Errorf("tcpls: fast join write: %w", werr)
		}
	}

	if err := handshake.FinishFastJoin(tr); err != nil {
		// Cookie spent for nothing. Declare the embryonic connection
		// failed so failover replays the optimistic records onto a
		// surviving path — the stream's bytes are not lost.
		nc.Close()
		s.reportFastJoinFailed(connID)
		return 0, st, fmt.Errorf("tcpls: fast join: %w", err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return 0, st, ErrSessionClosed
	}
	s.startJoinedConnLocked(connID, nc, tr.Leftover())
	if s.dialNetwork == "" {
		s.dialNetwork = network
	}
	s.rememberAddrLocked(addr)
	s.mu.Unlock()
	return connID, st, nil
}

// reportFastJoinFailed marks an embryonic fast-join connection failed so
// its optimistic records replay through the normal failover machinery.
func (s *Session) reportFastJoinFailed(connID uint32) {
	s.mu.Lock()
	s.reportConnFailedLocked(connID)
	s.mu.Unlock()
}

// JoinConn joins an already-established TCP connection (dialed by the
// application, e.g. from a specific source address) to the session.
func (s *Session) JoinConn(nc net.Conn) (uint32, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrSessionClosed
	}
	if s.cfg.DisableTCPLS {
		s.mu.Unlock()
		return 0, ErrNotTCPLS
	}
	if len(s.cookies) == 0 {
		s.mu.Unlock()
		return 0, ErrNoCookies
	}
	cookie := s.cookies[0]
	s.cookies = s.cookies[1:]
	connID := s.nextConnID
	s.nextConnID++
	sessID := s.sessID
	sname := s.cfg.ServerName
	suites := s.cfg.Suites
	s.engine.Note("cookie_consumed", connID, 0, 0, len(s.cookies))
	s.mu.Unlock()

	hcfg := &handshake.Config{
		Suites:     suites,
		ServerName: sname,
		Join:       &handshake.JoinTicket{SessID: sessID, Cookie: cookie, ConnID: connID},
	}
	tr := handshake.NewTransport(nc)
	if _, err := handshake.Client(tr, hcfg); err != nil {
		nc.Close()
		return 0, fmt.Errorf("tcpls: join handshake: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		nc.Close()
		return 0, ErrSessionClosed
	}
	if err := s.engine.AddConnection(connID, time.Now()); err != nil {
		nc.Close()
		return 0, err
	}
	s.startJoinedConnLocked(connID, nc, tr.Leftover())
	return connID, nil
}
