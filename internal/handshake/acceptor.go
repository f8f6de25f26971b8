package handshake

import (
	"cmp"
	"crypto/rand"
	"errors"
	"net"
	"sync"
	"time"

	"tcpls/internal/resume"
)

// Acceptor is the server side of TCPLS without I/O (paper §3.3.2,
// Fig. 3; DESIGN.md §12): it admits each accepted connection, runs its
// handshake machine under a deadline, gates resumption and 0-RTT, keeps
// the session table with its cookies, and hands joined connections to
// their session. A wrapper brings the bytes and the time and acts on
// each Verdict: the root Listener over sockets, simtcpls over the
// simulator. All methods are safe for concurrent use.
type Acceptor struct {
	cfg AcceptorConfig

	mu       sync.Mutex
	closed   bool
	pending  map[*Incoming]struct{}
	sessions map[SessID]*entry
}

// AcceptorConfig configures an Acceptor.
type AcceptorConfig struct {
	// Handshake is the server's side of every handshake: identity, TCPLS,
	// addresses, cookie and 0-RTT budgets. Its hooks are the acceptor's.
	Handshake Config
	Admission Admission        // nil admits all
	Timeout   time.Duration    // each handshake's deadline from its accept; zero for none
	Keys      *resume.KeyStore // opens tickets; nil refuses them
	Replay    *resume.Replay   // the 0-RTT strike register; nil refuses early data
}

// Admission is the accept edge's policy, the method set of the root
// package's AdmissionControl.
type Admission interface {
	AdmitConn(remote net.Addr) (release func(), err error)
	AdmitJoin(remote net.Addr) bool
	AdmitSession(remote net.Addr) error
}

// entry is one session in the table: its unspent cookies, the wrapper's
// session once Established, and the joins that finished before that.
type entry struct {
	cookies map[Cookie]struct{}
	owner   any
	parked  []*Incoming
}

// Outcome is what became of an accepted connection.
type Outcome uint8

const (
	Handshaking Outcome = iota // no verdict yet
	NewSession                 // build a session over Result; register it with Established
	Join                       // the connection joins Owner's session as Result.JoinConnID
	Parked                     // a join of a session not yet Established, which hands it back
	Refused                    // close the connection
)

// Reason says why a connection was refused.
type Reason uint8

const (
	_              Reason = iota
	RefusedConn           // AdmitConn said no: no handshake byte was read
	RefusedJoin           // AdmitJoin said no: the cookie was not spent
	RefusedSession        // AdmitSession shed the new session
	BadCookie             // an unknown, spent or forgotten cookie
	Failed                // the handshake or its transport failed
	Expired               // the deadline passed first
	Closed                // the acceptor closed first
)

// Ticket is a resumption ticket's fate, and Early a 0-RTT flight's once
// the gate was consulted.
type (
	Ticket uint8
	Early  uint8
)

const (
	NoTicket       Ticket = iota
	TicketRejected        // offered but did not open: a full handshake
	TicketOpened
	TicketReissued // opened under an old key generation; reissue it
)

const (
	NoEarly Early = iota
	EarlyAccepted
	EarlyRejected // stale ticket, replayed nonce, full register or budget
)

// Verdict is the outcome of one accepted connection, with its
// resumption disposition. Owner is the joined session, or the live one a
// refused join aimed at; Drop lists joins parked on a session that will
// never be, whose connections the wrapper closes.
type Verdict struct {
	Outcome Outcome
	Reason  Reason
	Err     error
	Result  *Result
	Owner   any
	Ticket  Ticket
	Early   Early
	Drop    []*Incoming
}

// ErrExpired ends a handshake whose deadline passed.
var ErrExpired = errors.New("handshake: deadline exceeded")

// NewAcceptor builds an acceptor with an empty session table.
func NewAcceptor(cfg AcceptorConfig) *Acceptor {
	return &Acceptor{cfg: cfg, pending: make(map[*Incoming]struct{}), sessions: make(map[SessID]*entry)}
}

// Incoming is one accepted connection until its verdict. Conn is the
// wrapper's, handed back by Close, Established and Drop.
type Incoming struct {
	Conn     any
	Deadline time.Time

	a       *Acceptor
	m       *Machine
	remote  net.Addr
	release func()
	now     time.Time // the latest Feed's: the 0-RTT gate's clock
	issued  *SessID   // the table entry this handshake created
	target  *SessID   // the session a join asked for
	refuse  Reason    // the join gate's refusal
	ticket  Ticket
	stamp   time.Time // the ticket's sealed issuance
	gated   bool      // the 0-RTT gate was consulted
	v       Verdict
}

// Accept admits a connection accepted at now. Its Verdict is Refused at
// once if the acceptor closed or AdmitConn said no; otherwise the
// wrapper writes each Flight and Feeds what it reads until a verdict.
func (a *Acceptor) Accept(conn any, remote net.Addr, now time.Time) *Incoming {
	h := &Incoming{Conn: conn, a: a, remote: remote, now: now}
	a.mu.Lock()
	closed := a.closed
	if !closed {
		a.pending[h] = struct{}{}
	}
	a.mu.Unlock()
	if closed {
		h.v = Verdict{Outcome: Refused, Reason: Closed}
		return h
	}
	if adm := a.cfg.Admission; adm != nil {
		rel, err := adm.AdmitConn(remote)
		if err != nil {
			h.settle(Verdict{Outcome: Refused, Reason: RefusedConn, Err: err})
			return h
		}
		h.release = rel
	}
	if a.cfg.Timeout > 0 {
		h.Deadline = now.Add(a.cfg.Timeout)
	}
	cfg := a.cfg.Handshake
	cfg.Sessions = (*joinGate)(h)
	cfg.DecryptTicket = h.openTicket
	cfg.AcceptEarlyData = h.admitEarly
	cfg.OnSessionIssued = h.sessionIssued
	h.m = NewServer(&cfg)
	return h
}

// Feed takes bytes read at now; past the deadline the handshake expires.
func (h *Incoming) Feed(p []byte, now time.Time) {
	if h.v.Outcome == Handshaking && !h.expire(now) {
		h.now = now
		h.m.Feed(p)
	}
}

// Flight returns the next bytes to write; write them all before asking
// for the Verdict. A refused fast join still owes one.
func (h *Incoming) Flight() []byte {
	if h.m == nil {
		return nil
	}
	return h.m.Flight()
}

// Leftover returns the bytes read behind the handshake: the peer's first
// engine records.
func (h *Incoming) Leftover() []byte { return h.m.Leftover() }

// Verdict is Handshaking until the machine finished or failed, then the
// connection's one verdict.
func (h *Incoming) Verdict() Verdict {
	switch {
	case h.v.Outcome != Handshaking:
	case h.m.Err() != nil:
		h.settle(Verdict{Outcome: Refused, Reason: cmp.Or(h.refuse, Failed), Err: h.m.Err()})
	case h.m.Done() && h.m.res.JoinAccepted:
		h.settle(Verdict{Outcome: Join, Result: &h.m.res})
	case h.m.Done():
		h.settle(Verdict{Outcome: NewSession, Result: &h.m.res})
	}
	return h.v
}

// Close ends a handshake the wrapper gives up on: its transport failed
// with err or, at or past Deadline, it expired. A verdict reached stands.
func (h *Incoming) Close(err error, now time.Time) Verdict {
	if h.v.Outcome == Handshaking && !h.expire(now) {
		h.settle(Verdict{Outcome: Refused, Reason: Failed, Err: err})
	}
	return h.v
}

// expire settles h as Expired if now is at or past its deadline.
func (h *Incoming) expire(now time.Time) bool {
	if h.Deadline.IsZero() || now.Before(h.Deadline) {
		return false
	}
	h.settle(Verdict{Outcome: Refused, Reason: Expired, Err: ErrExpired})
	return true
}

// settle reaches h's one verdict: its admission slot is released, a new
// session passes AdmitSession, a join finds its session or parks on one
// still being set up, and a refused handshake takes the table entry it
// created along, with the joins parked on it.
func (h *Incoming) settle(v Verdict) {
	a := h.a
	if h.release != nil {
		h.release()
	}
	if adm := a.cfg.Admission; v.Outcome == NewSession && adm != nil {
		if err := adm.AdmitSession(h.remote); err != nil {
			v = Verdict{Outcome: Refused, Reason: RefusedSession, Err: err, Result: v.Result}
		}
	}
	v.Ticket = h.ticket
	if h.gated {
		v.Early = EarlyRejected
		if v.Result != nil && v.Result.EarlyDataAccepted {
			v.Early = EarlyAccepted
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.pending, h)
	if a.closed && v.Outcome != Refused {
		v.Outcome, v.Reason = Refused, Closed
	}
	if v.Outcome == Join {
		switch e := a.sessions[v.Result.SessID]; {
		case e == nil:
			v.Outcome, v.Reason = Refused, BadCookie
		case e.owner == nil:
			// Established hands h to another goroutine, under a.mu.
			v.Outcome = Parked
			e.parked = append(e.parked, h)
		default:
			v.Owner = e.owner
		}
	}
	if v.Outcome == Refused && h.issued != nil {
		if e := a.sessions[*h.issued]; e != nil {
			v.Drop = e.parked
		}
		delete(a.sessions, *h.issued)
	}
	if v.Outcome == Refused && h.target != nil {
		if e := a.sessions[*h.target]; e != nil {
			v.Owner = e.owner
		}
	}
	h.v = v
}

// joinGate is a handshake's cookie check: admission first, so a join
// flood burns its sender's budget rather than cookies, then one spend of
// a cookie the table holds.
type joinGate Incoming

func (g *joinGate) ValidateJoin(id SessID, cookie Cookie) bool {
	h := (*Incoming)(g)
	h.target = &id
	if adm := h.a.cfg.Admission; adm != nil && !adm.AdmitJoin(h.remote) {
		h.refuse = RefusedJoin
		return false
	}
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	if e := h.a.sessions[id]; e != nil {
		if _, ok := e.cookies[cookie]; ok {
			delete(e.cookies, cookie)
			return true
		}
	}
	h.refuse = BadCookie
	return false
}

func (h *Incoming) sessionIssued(id SessID, cookies []Cookie) {
	e := &entry{cookies: make(map[Cookie]struct{}, len(cookies))}
	for _, c := range cookies {
		e.cookies[c] = struct{}{}
	}
	h.issued = &id
	h.a.mu.Lock()
	h.a.sessions[id] = e
	h.a.mu.Unlock()
}

func (h *Incoming) openTicket(ticket []byte) ([]byte, bool) {
	var psk []byte
	psk, h.stamp, h.ticket = h.a.OpenTicket(ticket)
	return psk, psk != nil
}

func (h *Incoming) admitEarly(ticket []byte) bool {
	h.gated = true
	return h.a.AdmitEarly(ticket, h.stamp, h.now)
}

// OpenTicket opens a resumption ticket: its PSK, its sealed issuance
// stamp, and whether it opened at all and under which key generation.
func (a *Acceptor) OpenTicket(ticket []byte) (psk []byte, issued time.Time, t Ticket) {
	if a.cfg.Keys == nil {
		return nil, time.Time{}, TicketRejected
	}
	psk, issued, reissue, err := a.cfg.Keys.OpenTicket(ticket)
	switch {
	case err != nil:
		return nil, time.Time{}, TicketRejected
	case reissue:
		return psk, issued, TicketReissued
	}
	return psk, issued, TicketOpened
}

// AdmitEarly is the one 0-RTT gate: one strike per ticket nonce, and only
// for a ticket issued recently enough that the strike register still
// remembers any earlier use of it (resume.Replay.ObserveFresh). A
// replayed 0-RTT flight is read and discarded, never delivered twice.
func (a *Acceptor) AdmitEarly(ticket []byte, issued, now time.Time) bool {
	nonce, ok := resume.TicketNonce(ticket)
	return ok && a.cfg.Replay != nil && a.cfg.Replay.ObserveFresh(nonce, issued, now)
}

// Established registers owner, the wrapper's session, as the session
// behind id, and returns the joins parked on it for the wrapper to adopt.
func (a *Acceptor) Established(id SessID, owner any) []*Incoming {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.sessions[id]
	if e == nil {
		return nil
	}
	parked := e.parked
	e.owner, e.parked = owner, nil
	return parked
}

// Forget drops an Established session's entry, cookies and all, when the
// session ends.
func (a *Acceptor) Forget(id SessID) {
	a.mu.Lock()
	delete(a.sessions, id)
	a.mu.Unlock()
}

// IssueCookies mints n cookies into a session's entry and returns them
// for the session to send (§3.3.2's replenishment). A nil acceptor, a
// client's, only mints.
func (a *Acceptor) IssueCookies(id SessID, n int) ([][CookieLen]byte, error) {
	out := make([][CookieLen]byte, n)
	for i := range out {
		if _, err := rand.Read(out[i][:]); err != nil {
			return nil, err
		}
	}
	if a == nil {
		return out, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.sessions[id]; e != nil {
		for _, c := range out {
			e.cookies[c] = struct{}{}
		}
	}
	return out, nil
}

// Cookies reports how many unspent cookies a session's entry holds.
func (a *Acceptor) Cookies(id SessID) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.sessions[id]; e != nil {
		return len(e.cookies)
	}
	return 0
}

// Len reports the table's entries and the handshakes still pending.
func (a *Acceptor) Len() (sessions, pending int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.sessions), len(a.pending)
}

// Close refuses every later connection and returns the pending ones for
// the wrapper to close; each then ends Refused. Accepted sessions keep
// their entries, and their joins.
func (a *Acceptor) Close() []*Incoming {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	out := make([]*Incoming, 0, len(a.pending))
	for h := range a.pending {
		out = append(out, h)
	}
	return out
}
