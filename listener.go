package tcpls

import (
	"net"
	"sync"
	"time"

	"tcpls/internal/handshake"
	"tcpls/internal/telemetry"
)

// Listener accepts TCPLS sessions. Additional TCP connections that join
// existing sessions (Fig. 3) are absorbed into their Session rather than
// surfacing from Accept. The server's policy (admission, the handshake
// deadline, tickets and 0-RTT, the session table with its cookies) is
// internal/handshake's Acceptor; the Listener runs one goroutine per
// connection over it and acts on each verdict.
type Listener struct {
	ln  net.Listener
	cfg *Config
	acc *handshake.Acceptor
	// keys seals resumption tickets; Config.TicketKeys (persistent,
	// restart-surviving) or a fresh in-memory store. Its anti-replay
	// strike register gates 0-RTT: listeners sharing ticket keys accept
	// each other's tickets, so they share strikes too — otherwise a
	// captured 0-RTT flight would replay once per listener.
	keys *TicketKeyStore
	rtel *telemetry.ResumeMetrics

	acceptCh  chan acceptResult
	done      chan struct{}
	closeOnce sync.Once
}

type acceptResult struct {
	sess *Session
	err  error
}

// Listen starts a TCPLS server on the given TCP address.
func Listen(network, addr string, cfg *Config) (*Listener, error) {
	if cfg != nil {
		if err := cfg.validateScheduler(); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return NewListener(ln, cfg), nil
}

// NewListener wraps an existing net.Listener.
func NewListener(ln net.Listener, cfg *Config) *Listener {
	l := &Listener{
		ln:       ln,
		cfg:      cfg.clone(),
		rtel:     &telemetry.ResumeMetrics{},
		acceptCh: make(chan acceptResult, 16),
		done:     make(chan struct{}),
	}
	l.keys = l.cfg.TicketKeys
	if l.keys == nil {
		if ks, err := NewTicketKeyStore(); err == nil {
			l.keys = ks
		}
	}
	acfg := handshake.AcceptorConfig{
		Handshake: handshake.Config{
			Certificate:    l.cfg.Certificate,
			TCPLSServer:    !l.cfg.DisableTCPLS,
			AdvertiseAddrs: l.cfg.AdvertiseAddrs,
			NumCookies:     l.cfg.NumCookies,
			MaxEarlyData:   l.cfg.MaxEarlyData,
		},
		Admission: l.cfg.Admission,
		Timeout:   l.cfg.handshakeTimeout(),
	}
	if l.keys != nil {
		acfg.Keys, acfg.Replay = l.keys.ks, l.keys.replay
	}
	l.acc = handshake.NewAcceptor(acfg)
	if !l.cfg.Telemetry.Disabled {
		fams := telemetry.ResumeFamiliesOn(telemetry.Default())
		l.rtel = fams.Listener(ln.Addr().String())
	}
	go l.acceptLoop()
	return l
}

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Accept blocks for the next new TCPLS session. Sessions whose
// handshake completed before the listener closed are still returned —
// a draining server serves them rather than dropping a client that
// finished its handshake in good faith.
func (l *Listener) Accept() (*Session, error) {
	select {
	case res := <-l.acceptCh:
		return res.sess, res.err
	default:
	}
	select {
	case res := <-l.acceptCh:
		return res.sess, res.err
	case <-l.done:
		// One more non-blocking drain: a handshake that finished just
		// as Close ran may have parked its result in the buffer.
		select {
		case res := <-l.acceptCh:
			return res.sess, res.err
		default:
		}
		return nil, net.ErrClosed
	}
}

// Close stops the listener. Established sessions keep running;
// connections still mid-handshake are closed so their goroutines exit
// rather than leak until the peer gives up.
func (l *Listener) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.done)
		for _, h := range l.acc.Close() {
			h.Conn.(net.Conn).Close()
		}
		err = l.ln.Close()
	})
	return err
}

func (l *Listener) acceptLoop() {
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			select {
			case l.acceptCh <- acceptResult{nil, err}:
			case <-l.done:
			}
			return
		}
		go l.handleConn(nc)
	}
}

// noteTrace stamps a wrapper-level mark onto the session's trace
// timeline from outside the usual locked paths.
func (s *Session) noteTrace(name string, conn uint32, seq uint64, bytes int) {
	s.mu.Lock()
	s.engine.Note(name, conn, 0, seq, bytes)
	s.mu.Unlock()
}

// handleConn runs one accepted connection through the acceptor, its
// handshake under the acceptor's deadline, and acts on the verdict.
func (l *Listener) handleConn(nc net.Conn) {
	h := l.acc.Accept(nc, nc.RemoteAddr(), time.Now())
	v := h.Verdict()
	if v.Outcome == handshake.Handshaking {
		if !h.Deadline.IsZero() {
			nc.SetDeadline(h.Deadline)
		}
		v = handshake.NewTransport(nc).Accept(h)
	}
	switch v.Outcome {
	case handshake.Refused:
		// The mark lands before the close the client sees.
		if sess, ok := v.Owner.(*Session); ok && (v.Reason == handshake.RefusedJoin || v.Reason == handshake.BadCookie) {
			sess.noteTrace("join_rejected", 0, 0, 0)
		}
		nc.Close()
		for _, j := range v.Drop {
			j.Conn.(net.Conn).Close()
		}
	case handshake.Join:
		l.adopt(h, v.Owner.(*Session))
	case handshake.NewSession:
		l.serve(h, v)
	}
	// Parked: the acceptor holds the connection until its session is
	// established, and serve adopts it then.
}

// adopt attaches a joined connection to its session.
func (l *Listener) adopt(h *handshake.Incoming, sess *Session) {
	nc := h.Conn.(net.Conn)
	nc.SetDeadline(time.Time{})
	res := h.Verdict().Result
	if res.FastJoin {
		l.rtel.JoinFastpath.Inc()
		sess.noteTrace("join_fastpath", 0, 0, 0)
	}
	sess.adoptJoinedConn(res.JoinConnID, nc, h.Leftover())
}

// serve builds the session a handshake opened, registers it with the
// acceptor for its joins, and hands it to Accept.
func (l *Listener) serve(h *handshake.Incoming, v handshake.Verdict) {
	nc, res := h.Conn.(net.Conn), v.Result
	nc.SetDeadline(time.Time{})
	sess := acceptSession(l.cfg, res, nc, h.Leftover())

	// Resumption disposition: metrics plus trace marks on the session's
	// own timeline.
	switch v.Ticket {
	case handshake.TicketOpened, handshake.TicketReissued:
		l.rtel.Accepted.Inc()
		sess.noteTrace("resume_accepted", 0, 0, 0)
		if v.Ticket == handshake.TicketReissued {
			// The ticket opened under an old key generation; the fresh
			// ticket issued below re-seals under the current one.
			sess.noteTrace("ticket_reissued", 0, 0, 0)
		}
	case handshake.TicketRejected:
		l.rtel.Rejected.Inc()
		sess.noteTrace("resume_rejected", 0, 0, 0)
	}
	switch v.Early {
	case handshake.EarlyAccepted:
		l.rtel.EarlyAccepted.Inc()
		l.rtel.EarlyBytes.Add(uint64(len(res.EarlyData)))
	case handshake.EarlyRejected:
		l.rtel.EarlyRejected.Inc()
		sess.noteTrace("early_data_rejected", 0, 0, 0)
	}
	if l.keys != nil {
		l.rtel.ReplayEntries.Set(int64(l.keys.replay.Entries()))
	}

	if l.keys != nil && !l.cfg.DisableTickets && !l.cfg.DisableTCPLS {
		sess.sealTicket = l.keys.ks.Seal
		// Advertise the 0-RTT budget this server will actually enforce,
		// so resuming clients clamp their offers instead of overflowing.
		sess.maxEarlyAdvert = uint32(handshake.EarlyDataBudget(l.cfg.MaxEarlyData))
		// Issue a resumption ticket over the fresh session (TLS 1.3
		// servers send NewSessionTicket right after the handshake).
		// Resumed sessions get one too — that is what reissues old-
		// generation tickets on use.
		go sess.issueTicket(0)
	}
	if res.TCPLSEnabled {
		parked := l.acc.Established(res.SessID, sess)
		// The entry only serves joins to a live session: when the session
		// ends (it may already have) it goes, cookies and all.
		sess.mu.Lock()
		if sess.acceptor = l.acc; sess.drv.Ended() {
			l.acc.Forget(res.SessID)
		}
		sess.mu.Unlock()
		for _, j := range parked {
			l.adopt(j, sess)
		}
	}
	// Prefer delivery: a session whose handshake beat the listener's
	// close should reach Accept, not be torn down. Only when the accept
	// buffer is full does the close win.
	select {
	case l.acceptCh <- acceptResult{sess, nil}:
		return
	default:
	}
	select {
	case l.acceptCh <- acceptResult{sess, nil}:
	case <-l.done:
		sess.Close()
	}
}

// IssueCookies mints n fresh join cookies for a session, registers them
// with the listener's acceptor, and sends them to the client over the
// encrypted channel (§3.3.2's replenishment).
func (s *Session) IssueCookies(conn uint32, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cookies, err := s.acceptor.IssueCookies(s.sessID, n)
	if err != nil {
		return err
	}
	s.engine.Note("cookie_issued", conn, 0, 0, n)
	err = s.engine.SendNewCookies(conn, cookies)
	s.drv.Flush()
	return err
}

// adoptJoinedConn attaches a joined TCP connection to the session. A
// draining session still adopts it: its drain lasts until every
// connection has ended, and a join may be what recovers a path lost on
// the way.
func (s *Session) adoptJoinedConn(connID uint32, nc net.Conn, leftover []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drv.Ended() {
		nc.Close()
		return
	}
	s.engine.Note("join_accepted", connID, 0, 0, 0)
	c := s.drv.Add(connID, "")
	pc := s.newPathConn(c, nc)
	if s.drv.Start(c, pc, leftover) != nil {
		nc.Close()
		return
	}
	pc.run()
}
