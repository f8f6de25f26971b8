package tcpls

import (
	"errors"
	"fmt"
	"net"
	"time"

	"tcpls/internal/driver"
	"tcpls/internal/handshake"
)

// Dial establishes a TCPLS session to addr: TCP connect, TLS 1.3-shaped
// handshake with the TCPLS Hello extension, then the session is ready
// for streams. Config.HandshakeTimeout bounds the connect and the
// handshake together. With cfg.DisableTCPLS the result is plain TLS over
// TCP carrying a single implicit byte stream.
//
// Explicit fallback (paper §5.2): when the handshake dies on the wire —
// an overly strict firewall answering the TCPLS ClientHello with a RST,
// or a legacy server aborting on unknown extensions — Dial retries once
// as plain TLS, under a deadline of its own, unless the failure was a
// protocol-level rejection (bad certificate, bad Finished) or the
// connect itself, which a retry cannot fix.
func Dial(network, addr string, cfg *Config) (*Session, error) {
	if cfg != nil {
		if err := cfg.validateScheduler(); err != nil {
			return nil, err
		}
	}
	dial := func(s *Session, c *driver.Conn) (net.Conn, error) { return s.dialConn(c, network, addr) }
	sess, err := newClient(cfg, time.Time{}, dial)
	if err == nil || cfg != nil && cfg.DisableTCPLS || !isWireFailure(err) {
		return sess, err
	}
	// Retry without the TCPLS Hello extension.
	fcfg := cfg.clone()
	fcfg.DisableTCPLS = true
	return newClient(fcfg, time.Time{}, dial)
}

// isWireFailure distinguishes transport-level aborts (retryable as plain
// TLS) from authenticated protocol rejections and failed connects (not
// retryable).
func isWireFailure(err error) bool {
	var op *net.OpError
	switch {
	case errors.Is(err, handshake.ErrBadFinished),
		errors.Is(err, handshake.ErrBadSignature),
		errors.Is(err, handshake.ErrUntrustedKey),
		errors.Is(err, handshake.ErrJoinRejected),
		errors.As(err, &op) && op.Op == "dial":
		return false
	}
	return true
}

// Client runs the client side of a TCPLS session over an established
// connection (Happy-Eyeballs-style callers dial their own sockets,
// §4.6), its handshake bounded by Config.HandshakeTimeout.
func Client(nc net.Conn, cfg *Config) (*Session, error) {
	if cfg != nil {
		if err := cfg.validateScheduler(); err != nil {
			nc.Close()
			return nil, err
		}
	}
	return newClient(cfg, time.Time{}, func(*Session, *driver.Conn) (net.Conn, error) { return nc, nil })
}

// newClient opens a client session: its first connection is registered
// with the driver under deadline (zero: Config.HandshakeTimeout from
// now), connected by dial and handshaken (connect).
func newClient(cfg *Config, deadline time.Time, dial func(*Session, *driver.Conn) (net.Conn, error)) (*Session, error) {
	cfg = cfg.clone()
	if t := cfg.handshakeTimeout(); deadline.IsZero() && t > 0 {
		deadline = time.Now().Add(t)
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
	s := newSession(true, cfg, hcfg)
	s.mu.Lock()
	c, _ := s.drv.Connect(0, "", deadline) // a new driver has no keys to need a cookie
	s.mu.Unlock()
	nc, err := dial(s, c)
	if err == nil {
		err = s.connect(c, nc, "", nil)
	}
	if err != nil {
		s.mu.Lock()
		s.drv.Fail(err)
		s.mu.Unlock()
		return nil, err
	}
	// The early-data stream opened when the handshake ended (Connected),
	// before the server's first bytes reached the engine: on acceptance
	// its bytes are already home, on rejection (or an offer clamped away
	// entirely) it carries the lossless 1-RTT resend. A failure to open it
	// is a failure to deliver cfg.EarlyData at all — surface it rather
	// than drop the bytes.
	if wantEarly {
		st, ok := s.EarlyStream()
		if !ok {
			s.Close()
			return nil, errors.New("tcpls: early-data stream could not be opened")
		}
		if !s.EarlyDataAccepted() {
			if offerEarly {
				s.noteTrace("early_data_rejected", 0, 0, len(cfg.EarlyData))
			}
			if _, werr := st.Write(cfg.EarlyData); werr != nil {
				s.Close()
				return nil, werr
			}
		}
	}
	return s, nil
}

// dialTCP is every TCP connect a client makes: toward addr, bounded by
// deadline (zero: none).
func dialTCP(network, addr string, deadline time.Time) (net.Conn, error) {
	return (&net.Dialer{Deadline: deadline}).Dial(network, addr)
}

// dialConn connects client connection c's socket toward addr by
// c.Deadline. A failed connect aborts c, which hands its cookie back.
func (s *Session) dialConn(c *driver.Conn, network, addr string) (net.Conn, error) {
	nc, err := dialTCP(network, addr, c.Deadline)
	if err != nil {
		s.mu.Lock()
		s.drv.Abort(c, err)
		s.mu.Unlock()
	}
	return nc, err
}

// beginJoin reserves a join toward addr: a cookie and a connection ID,
// with the handshake timeout as its deadline. A non-empty addr is
// remembered for redials once the join lands.
func (s *Session) beginJoin(addr string) (*driver.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.cfg.DisableTCPLS {
		return nil, ErrNotTCPLS
	}
	var deadline time.Time
	if t := s.cfg.handshakeTimeout(); t > 0 {
		deadline = time.Now().Add(t)
	}
	return s.drv.Join(addr, deadline)
}

// JoinPath opens an additional TCP connection to addr and joins it to
// the session using one of the server's single-use cookies (Fig. 3).
// It returns once the server has adopted the connection, with the new
// connection's engine ID, usable with OpenStreamOn, Failover, and the
// scheduler.
func (s *Session) JoinPath(network, addr string) (uint32, error) {
	c, nc, err := s.dialJoin(network, addr)
	if err != nil {
		return 0, err
	}
	if err := s.connect(c, nc, network, nil); err != nil {
		return 0, fmt.Errorf("tcpls: join: %w", err)
	}
	return c.ID, nil
}

// dialJoin reserves a join toward addr and connects its socket.
func (s *Session) dialJoin(network, addr string) (*driver.Conn, net.Conn, error) {
	c, err := s.beginJoin(addr)
	if err != nil {
		return nil, nil, err
	}
	nc, err := s.dialConn(c, network, addr)
	if err != nil {
		return nil, nil, fmt.Errorf("tcpls: join dial: %w", err)
	}
	return c, nc, nil
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
	c, nc, err := s.dialJoin(network, addr)
	if err != nil {
		return 0, nil, err
	}
	st, err := s.joinFast(c, nc, network, early)
	if err != nil {
		return 0, st, fmt.Errorf("tcpls: fast join: %w", err)
	}
	return c.ID, st, nil
}

// joinFast runs the single-flight join for c over nc: the stream
// carrying early is queued on c once it is in the engine, so its records
// leave in the same write as the hello.
func (s *Session) joinFast(c *driver.Conn, nc net.Conn, network string, early []byte) (*Stream, error) {
	var st *Stream
	err := s.connect(c, nc, network, func() error {
		s.engine.Note("join_fastpath", c.ID, 0, 0, len(early))
		if len(early) == 0 {
			return nil
		}
		sid, err := s.engine.CreateStream(c.ID)
		if err != nil {
			return err
		}
		st = &Stream{sess: s, id: sid}
		s.streams[sid] = st
		_, err = s.engine.Write(sid, early)
		s.drv.Flush()
		return err
	})
	return st, err
}

// JoinConn joins an already-established TCP connection (dialed by the
// application, e.g. from a specific source address) to the session. It
// returns once the server has adopted the connection.
func (s *Session) JoinConn(nc net.Conn) (uint32, error) {
	c, err := s.beginJoin("")
	if err != nil {
		return 0, err
	}
	if err := s.connect(c, nc, "", nil); err != nil {
		return 0, fmt.Errorf("tcpls: join: %w", err)
	}
	return c.ID, nil
}
