package tcpls

import (
	"crypto/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"tcpls/internal/handshake"
	"tcpls/internal/resume"
	"tcpls/internal/telemetry"
)

// Listener accepts TCPLS sessions. Additional TCP connections that join
// existing sessions (Fig. 3) are absorbed into their Session rather than
// surfacing from Accept.
type Listener struct {
	ln  net.Listener
	cfg *Config
	// keys seals resumption tickets; Config.TicketKeys (persistent,
	// restart-surviving) or a fresh in-memory store. replay aliases the
	// key store's anti-replay strike register: listeners sharing ticket
	// keys accept each other's tickets, so they share strikes too —
	// otherwise a captured 0-RTT flight would replay once per listener.
	keys   *TicketKeyStore
	replay *resume.Replay
	rtel   *telemetry.ResumeMetrics

	mu       sync.Mutex
	sessions map[SessID]*serverSession
	// hsConns tracks connections whose handshake is still in flight, so
	// Close can unblock their goroutines instead of leaking them until
	// the peer gives up.
	hsConns  map[net.Conn]struct{}
	acceptCh chan acceptResult
	done     chan struct{}
	closed   bool
}

type acceptResult struct {
	sess *Session
	err  error
}

// serverSession is the listener's per-session bookkeeping: the live
// Session plus the outstanding cookie set. ready is closed once sess is
// populated, so joins racing the initial handshake's tail can wait.
type serverSession struct {
	sess    *Session
	cookies map[Cookie]bool
	ready   chan struct{}
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
		sessions: make(map[SessID]*serverSession),
		hsConns:  make(map[net.Conn]struct{}),
		acceptCh: make(chan acceptResult, 16),
		done:     make(chan struct{}),
	}
	l.keys = l.cfg.TicketKeys
	if l.keys == nil {
		if ks, err := NewTicketKeyStore(); err == nil {
			l.keys = ks
		}
	}
	if l.keys != nil {
		l.replay = l.keys.replay
	}
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
	l.mu.Lock()
	closed := l.closed
	l.closed = true
	hs := make([]net.Conn, 0, len(l.hsConns))
	for nc := range l.hsConns {
		hs = append(hs, nc)
	}
	l.mu.Unlock()
	if closed {
		return nil
	}
	close(l.done)
	for _, nc := range hs {
		nc.Close()
	}
	return l.ln.Close()
}

// trackHandshake registers an in-flight handshake connection; false
// means the listener already closed and the conn should be dropped.
func (l *Listener) trackHandshake(nc net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.hsConns[nc] = struct{}{}
	return true
}

// untrackHandshake removes a connection from the in-flight set and
// reports whether the listener closed while the handshake ran (in which
// case the conn must be dropped, not adopted). A handshake that failed,
// or is dropped, after its cookie state was minted (issued) loses that
// entry in the same critical section: no session will ever own it, and
// nobody may see the handshake gone while its entry lingers.
func (l *Listener) untrackHandshake(nc net.Conn, failed bool, issued *SessID) (listenerClosed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.hsConns, nc)
	if issued != nil && (failed || l.closed) {
		delete(l.sessions, *issued)
	}
	return l.closed
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

// ValidateJoin implements handshake.JoinValidator: check and consume a
// single-use cookie.
func (l *Listener) ValidateJoin(id SessID, cookie Cookie) bool {
	l.mu.Lock()
	ss, ok := l.sessions[id]
	valid := ok && ss.cookies[cookie]
	if valid {
		ss.cookies[cookie] = false
	}
	l.mu.Unlock()
	// Trace the join decision onto the session's timeline when the
	// session object already exists (the initial handshake may still be
	// completing on its own connection).
	if valid {
		l.noteSessionTrace(id, "cookie_consumed")
	} else {
		l.noteSessionTrace(id, "join_rejected")
	}
	return valid
}

// forgetSession drops a session's entry, cookies and all.
func (l *Listener) forgetSession(id SessID) {
	l.mu.Lock()
	delete(l.sessions, id)
	l.mu.Unlock()
}

// noteSessionTrace stamps a listener-level mark (cookie_consumed,
// join_rejected) onto a session's trace timeline, when the session
// object already exists.
func (l *Listener) noteSessionTrace(id SessID, name string) {
	l.mu.Lock()
	var sess *Session
	if ss, ok := l.sessions[id]; ok {
		select {
		case <-ss.ready:
			sess = ss.sess
		default:
		}
	}
	l.mu.Unlock()
	if sess != nil {
		sess.noteTrace(name, 0, 0, 0)
	}
}

// joinGate is the per-connection join validator: it applies admission
// control for the connection's remote address before consulting the
// listener's cookie table, so a join flood from one IP burns admission
// budget, not cookies.
type joinGate struct {
	l      *Listener
	remote net.Addr
}

func (g *joinGate) ValidateJoin(id SessID, cookie Cookie) bool {
	if adm := g.l.cfg.Admission; adm != nil && !adm.AdmitJoin(g.remote) {
		g.l.noteSessionTrace(id, "join_rejected")
		return false
	}
	return g.l.ValidateJoin(id, cookie)
}

// noteTrace stamps a wrapper-level mark onto the session's trace
// timeline from outside the usual locked paths.
func (s *Session) noteTrace(name string, conn uint32, seq uint64, bytes int) {
	s.mu.Lock()
	s.engine.Note(name, conn, 0, seq, bytes)
	s.mu.Unlock()
}

// handleConn runs the server handshake on one TCP connection and either
// creates a session or joins an existing one. The whole handshake runs
// under Config.HandshakeTimeout and admission control: a stalled or
// unwelcome client is cut off here, before it can pin resources.
func (l *Listener) handleConn(nc net.Conn) {
	if !l.trackHandshake(nc) {
		nc.Close()
		return
	}
	var release func()
	if adm := l.cfg.Admission; adm != nil {
		rel, err := adm.AdmitConn(nc.RemoteAddr())
		if err != nil {
			l.untrackHandshake(nc, true, nil)
			nc.Close()
			return
		}
		release = rel
	}
	hsTimeout := l.cfg.handshakeTimeout()
	if hsTimeout > 0 {
		nc.SetDeadline(time.Now().Add(hsTimeout))
	}
	var advertise []netip.Addr
	advertise = append(advertise, l.cfg.AdvertiseAddrs...)
	// Per-connection resumption disposition, captured by the handshake
	// hooks: whether a ticket was offered, whether it opened under an
	// old key generation, when it was issued (sealed inside the ticket;
	// gates 0-RTT freshness), and whether the anti-replay gate was
	// consulted.
	var ticketOffered, ticketReissue, earlyGated bool
	var ticketIssued time.Time
	var issued *SessID // set once OnSessionIssued has put an entry in l.sessions
	hcfg := &handshake.Config{
		Certificate:    l.cfg.Certificate,
		TCPLSServer:    !l.cfg.DisableTCPLS,
		AdvertiseAddrs: advertise,
		NumCookies:     l.cfg.NumCookies,
		MaxEarlyData:   l.cfg.MaxEarlyData,
		Sessions:       &joinGate{l: l, remote: nc.RemoteAddr()},
		DecryptTicket: func(ticket []byte) ([]byte, bool) {
			ticketOffered = true
			if l.keys == nil {
				return nil, false
			}
			psk, issued, reissue, err := l.keys.ks.OpenTicket(ticket)
			if err != nil {
				return nil, false
			}
			ticketReissue = reissue
			ticketIssued = issued
			return psk, true
		},
		AcceptEarlyData: func(ticket []byte) bool {
			// One strike per ticket nonce, bounded by the ticket's sealed
			// issuance stamp: a replayed 0-RTT flight (same ticket, same
			// nonce) is decrypted and discarded, never delivered twice —
			// the freshness gate keeps that true across register turnover
			// and server restarts.
			earlyGated = true
			nonce, ok := resume.TicketNonce(ticket)
			if !ok || l.replay == nil {
				return false
			}
			return l.replay.ObserveFresh(nonce, ticketIssued, time.Now())
		},
		OnSessionIssued: func(id SessID, cookies []Cookie) {
			ss := &serverSession{cookies: make(map[Cookie]bool), ready: make(chan struct{})}
			for _, c := range cookies {
				ss.cookies[c] = true
			}
			l.mu.Lock()
			l.sessions[id] = ss
			l.mu.Unlock()
			issued = &id
		},
	}
	tr := handshake.NewTransport(nc)
	res, err := handshake.Server(tr, hcfg)
	if release != nil {
		release()
	}
	if closed := l.untrackHandshake(nc, err != nil, issued); err != nil || closed {
		nc.Close()
		return
	}
	nc.SetDeadline(time.Time{})

	if res.JoinAccepted {
		if res.FastJoin {
			if l.rtel != nil {
				l.rtel.JoinFastpath.Inc()
			}
			l.noteSessionTrace(res.SessID, "join_fastpath")
		}
		l.mu.Lock()
		ss, ok := l.sessions[res.SessID]
		l.mu.Unlock()
		if !ok {
			nc.Close()
			return
		}
		// The initial handshake may still be finishing on its own
		// connection; wait for the session object — bounded by the
		// handshake deadline, and unblocked by listener close.
		wait := hsTimeout
		if wait <= 0 {
			wait = defaultHandshakeTimeout
		}
		select {
		case <-ss.ready:
		case <-time.After(wait):
			nc.Close()
			return
		case <-l.done:
			nc.Close()
			return
		}
		ss.sess.adoptJoinedConn(res.JoinConnID, nc, tr.Leftover())
		return
	}

	if adm := l.cfg.Admission; adm != nil {
		if err := adm.AdmitSession(nc.RemoteAddr()); err != nil {
			// Shed: drop the cookie state minted during the handshake so
			// the rejected client cannot join its way back in.
			if res.TCPLSEnabled {
				l.forgetSession(res.SessID)
			}
			nc.Close()
			return
		}
	}

	sess := newSession(false, l.cfg, res, nc, tr.Leftover(), false)

	// Resumption disposition: metrics plus trace marks on the session's
	// own timeline.
	switch {
	case res.Resumed:
		if l.rtel != nil {
			l.rtel.Accepted.Inc()
		}
		sess.noteTrace("resume_accepted", 0, 0, 0)
		if ticketReissue {
			// The ticket opened under an old key generation; the fresh
			// ticket issued below re-seals under the current one.
			sess.noteTrace("ticket_reissued", 0, 0, 0)
		}
	case ticketOffered:
		if l.rtel != nil {
			l.rtel.Rejected.Inc()
		}
		sess.noteTrace("resume_rejected", 0, 0, 0)
	}
	switch {
	case res.EarlyDataAccepted:
		if l.rtel != nil {
			l.rtel.EarlyAccepted.Inc()
			l.rtel.EarlyBytes.Add(uint64(len(res.EarlyData)))
		}
	case earlyGated:
		if l.rtel != nil {
			l.rtel.EarlyRejected.Inc()
		}
		sess.noteTrace("early_data_rejected", 0, 0, 0)
	}
	if l.rtel != nil && l.replay != nil {
		l.rtel.ReplayEntries.Set(int64(l.replay.Entries()))
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
		l.mu.Lock()
		ss := l.sessions[res.SessID]
		if ss == nil {
			ss = &serverSession{cookies: make(map[Cookie]bool), ready: make(chan struct{})}
			l.sessions[res.SessID] = ss
		}
		ss.sess = sess
		close(ss.ready)
		l.mu.Unlock()
		// The entry only serves joins to a live session: when the session
		// ends (it may already have) it goes, cookies and all.
		forget := func() { l.forgetSession(res.SessID) }
		sess.mu.Lock()
		if sess.doneHook = forget; sess.drv.Ended() {
			forget()
		}
		sess.mu.Unlock()
		// Replenish trigger: when the session mints more cookies later
		// (IssueCookies), the listener learns the new cookie set.
		sess.onNewServerCookies = func(cookies []Cookie) {
			l.mu.Lock()
			defer l.mu.Unlock()
			for _, c := range cookies {
				ss.cookies[c] = true
			}
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
// with the listener, and sends them to the client over the encrypted
// channel (§3.3.2's replenishment).
func (s *Session) IssueCookies(conn uint32, n int) error {
	cookies := make([][16]byte, n)
	plain := make([]Cookie, n)
	for i := range cookies {
		if _, err := rand.Read(cookies[i][:]); err != nil {
			return err
		}
		plain[i] = Cookie(cookies[i])
	}
	s.mu.Lock()
	cb := s.onNewServerCookies
	s.engine.Note("cookie_issued", conn, 0, 0, n)
	err := s.engine.SendNewCookies(conn, cookies)
	s.drv.Flush()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if cb != nil {
		cb(plain)
	}
	return nil
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
	if s.startConnLocked(s.drv.Add(connID, ""), nc, leftover, false) != nil {
		nc.Close()
	}
}
