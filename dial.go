package tcpls

import (
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"tcpls/internal/driver"
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

// beginJoin reserves a join: a cookie and a connection ID, with the
// handshake timeout as its deadline. A non-empty addr is remembered for
// redials once the join lands.
func (s *Session) beginJoin(addr string) (*driver.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.cfg.DisableTCPLS {
		return nil, ErrNotTCPLS
	}
	c, err := s.drv.Join(addr)
	if err == nil && s.cfg.handshakeTimeout() > 0 {
		c.Deadline = time.Now().Add(s.cfg.handshakeTimeout())
	}
	return c, err
}

// join is the one join routine behind JoinPath, JoinConn and the
// supervisor's redials: the join handshake for c over nc, then the
// connection starts and join waits until the peer has shown it adopted
// the connection (an echo answered on it). So a Close right after a join
// cannot outrun the server's adoption and reach it on the other
// connections alone. It runs without s.mu; nc's deadline is c.Deadline
// until the adoption.
func (s *Session) join(c *driver.Conn, nc net.Conn, network string) error {
	if !c.Deadline.IsZero() {
		nc.SetDeadline(c.Deadline)
	}
	tr := handshake.NewTransport(nc)
	_, err := handshake.Client(tr, &handshake.Config{
		ServerName: s.cfg.ServerName,
		Join:       &handshake.JoinTicket{SessID: s.sessID, Cookie: c.Cookie, ConnID: c.ID},
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// The ClientHello reached the server, so the single-use cookie
		// must be assumed spent.
		nc.Close()
		err = fmt.Errorf("tcpls: join handshake: %w", err)
		s.drv.Abort(c, true, err)
		return err
	}
	s.engine.Note("join_accepted", c.ID, 0, 0, 0)
	if err := s.startConnLocked(c, nc, tr.Leftover(), true); err != nil {
		nc.Close()
		return err
	}
	for c.State == driver.Joining && !s.drv.Ended() {
		s.cond.Wait()
	}
	switch {
	case s.drv.Ended():
		return s.closedErrLocked()
	case c.State != driver.Live:
		return fmt.Errorf("tcpls: join of conn %d: not adopted (%v)", c.ID, c.State)
	}
	nc.SetDeadline(time.Time{})
	if c.Addr != "" {
		s.rememberAddrLocked(c.Addr)
		if s.dialNetwork == "" {
			s.dialNetwork = network
		}
	}
	return nil
}

// JoinPath opens an additional TCP connection to addr and joins it to
// the session using one of the server's single-use cookies (Fig. 3).
// It returns once the server has adopted the connection, with the new
// connection's engine ID, usable with OpenStreamOn, Failover, and the
// scheduler.
func (s *Session) JoinPath(network, addr string) (uint32, error) {
	c, err := s.beginJoin(addr)
	if err != nil {
		return 0, err
	}
	nc, err := net.Dial(network, addr)
	if err != nil {
		s.mu.Lock()
		s.drv.Abort(c, false, err)
		s.mu.Unlock()
		return 0, fmt.Errorf("tcpls: join dial: %w", err)
	}
	if err := s.join(c, nc, network); err != nil {
		return 0, err
	}
	return c.ID, nil
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
	if len(early) > 0 && !s.cfg.EnableFailover {
		connID, err := s.JoinPath(network, addr)
		if err != nil {
			return 0, nil, err
		}
		st, err := s.OpenStreamOn(connID)
		if err != nil {
			return connID, nil, err
		}
		_, err = st.Write(early)
		return connID, st, err
	}
	c, err := s.beginJoin(addr)
	if err != nil {
		return 0, nil, err
	}
	nc, err := net.Dial(network, addr)
	if err != nil {
		s.mu.Lock()
		s.drv.Abort(c, false, err)
		s.mu.Unlock()
		return 0, nil, fmt.Errorf("tcpls: join dial: %w", err)
	}
	tr := handshake.NewTransport(nc)
	hcfg := &handshake.Config{
		Join: &handshake.JoinTicket{SessID: s.sessID, Cookie: c.Cookie, ConnID: c.ID},
	}
	if err := handshake.StartFastJoin(tr, hcfg); err != nil {
		nc.Close()
		s.mu.Lock()
		s.drv.Abort(c, true, err)
		s.mu.Unlock()
		return 0, nil, fmt.Errorf("tcpls: fast join: %w", err)
	}

	// Build the optimistic flight. The connection is started in the driver
	// but its reader and writer are not, so its output waits for the
	// flight below and nothing consumes the server's plaintext ack early.
	var st *Stream
	var flight [][]byte
	s.mu.Lock()
	pc := s.newPathConn(c, nc)
	err = s.drv.Start(c, pc, nil, false)
	if err == nil {
		s.engine.Note("join_fastpath", c.ID, 0, 0, len(early))
	}
	if err == nil && len(early) > 0 {
		var sid uint32
		if sid, err = s.engine.CreateStream(c.ID); err == nil {
			st = &Stream{sess: s, id: sid}
			s.streams[sid] = st
			_, err = s.engine.Write(sid, early)
		}
		s.drv.Flush()
		flight = s.drv.Pull(c, nil, math.MaxInt)
	}
	s.mu.Unlock()
	var written int64
	if err == nil && len(flight) > 0 {
		iov := append(net.Buffers(nil), flight...) // WriteTo consumes its view
		written, err = iov.WriteTo(nc)
	}
	s.mu.Lock()
	s.drv.Settle(c, flight, written, err)
	s.mu.Unlock()
	if err != nil {
		nc.Close()
		return 0, st, fmt.Errorf("tcpls: fast join: %w", err)
	}

	if err := handshake.FinishFastJoin(tr); err != nil {
		// Cookie spent for nothing. The embryonic connection fails, so
		// failover replays the optimistic records onto a surviving path —
		// the stream's bytes are not lost.
		nc.Close()
		s.mu.Lock()
		s.drv.Abort(c, true, err)
		s.mu.Unlock()
		return 0, st, fmt.Errorf("tcpls: fast join: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine.Note("join_accepted", c.ID, 0, 0, 0)
	if err := s.drv.Receive(c, tr.Leftover()); err != nil {
		s.drv.Fail(err)
	}
	pc.run()
	s.rememberAddrLocked(addr)
	if s.dialNetwork == "" {
		s.dialNetwork = network
	}
	return c.ID, st, nil
}

// JoinConn joins an already-established TCP connection (dialed by the
// application, e.g. from a specific source address) to the session. It
// returns once the server has adopted the connection.
func (s *Session) JoinConn(nc net.Conn) (uint32, error) {
	c, err := s.beginJoin("")
	if err != nil {
		return 0, err
	}
	if err := s.join(c, nc, ""); err != nil {
		return 0, err
	}
	return c.ID, nil
}
