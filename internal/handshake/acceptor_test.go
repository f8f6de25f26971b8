package handshake

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"tcpls/internal/resume"
)

// The acceptor's table on a fake clock: each case asserts the exact
// number of entries and pending handshakes at an exact time.

var t0 = time.Unix(1_000_000, 0)

func newTestAcceptor(t testing.TB, cfg AcceptorConfig) *Acceptor {
	cfg.Handshake.Certificate, cfg.Handshake.TCPLSServer = testCert(t), true
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	return NewAcceptor(cfg)
}

// serve runs client machine cm against h at now until neither moves, and
// returns h's verdict.
func serve(cm *Machine, h *Incoming, now time.Time) Verdict {
	for moved := true; moved; {
		moved = false
		if out := drain(cm); len(out) > 0 && h.Verdict().Outcome == Handshaking {
			h.Feed(out, now)
			moved = true
		}
		var out []byte
		for f := h.Flight(); len(f) > 0; f = h.Flight() {
			out = append(out, f...)
		}
		if len(out) > 0 && cm.Err() == nil {
			cm.Feed(out)
			moved = true
		}
	}
	return h.Verdict()
}

func assertLen(t *testing.T, a *Acceptor, at string, sessions, pending int) {
	t.Helper()
	if s, p := a.Len(); s != sessions || p != pending {
		t.Fatalf("%s: %d entries and %d pending, want %d and %d", at, s, p, sessions, pending)
	}
}

// open runs a full TCPLS handshake to a NewSession verdict and registers
// owner; it returns the client's result.
func open(t *testing.T, a *Acceptor, owner any) *Result {
	t.Helper()
	cm, err := NewClient(&Config{EnableTCPLS: true})
	if err != nil {
		t.Fatal(err)
	}
	v := serve(cm, a.Accept(nil, nil, t0), t0)
	if v.Outcome != NewSession || !cm.Done() {
		t.Fatalf("initial handshake: %+v (client err %v)", v, cm.Err())
	}
	a.Established(v.Result.SessID, owner)
	return cm.Result()
}

func joinHello(t *testing.T, id SessID, cookie Cookie, fast bool) *Machine {
	t.Helper()
	cfg := &Config{Join: &JoinTicket{SessID: id, Cookie: cookie, ConnID: 1}}
	m, err := newClient(cfg, fast)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAcceptorForgetsAbortedHandshake: the server mints a session's
// entry while it writes its first flight, so a client that hangs up
// after the ServerHello, or never answers, must not leave it behind.
func TestAcceptorForgetsAbortedHandshake(t *testing.T) {
	a := newTestAcceptor(t, AcceptorConfig{})
	var hs []*Incoming
	for i := 0; i < 20; i++ {
		cm, err := NewClient(&Config{EnableTCPLS: true})
		if err != nil {
			t.Fatal(err)
		}
		h := a.Accept(nil, nil, t0)
		h.Feed(drain(cm), t0)
		for f := h.Flight(); len(f) > 0; f = h.Flight() {
		}
		hs = append(hs, h)
	}
	assertLen(t, a, "after 20 server flights", 20, 20)
	// Half hang up at t0+1s; the rest go silent until the deadline.
	for _, h := range hs[:10] {
		if v := h.Close(io.EOF, t0.Add(time.Second)); v.Outcome != Refused || v.Reason != Failed {
			t.Fatalf("hang-up verdict %+v", v)
		}
	}
	assertLen(t, a, "t0+1s", 10, 10)
	for _, h := range hs[10:] {
		h.Feed([]byte{0x16}, t0.Add(10*time.Second-time.Nanosecond))
	}
	assertLen(t, a, "a byte before the deadline", 10, 10)
	for _, h := range hs[10:] {
		if v := h.Close(nil, t0.Add(10*time.Second)); v.Reason != Expired || !errors.Is(v.Err, ErrExpired) {
			t.Fatalf("deadline verdict %+v", v)
		}
	}
	assertLen(t, a, "t0+10s", 0, 0)
}

// TestAcceptorForgetsClosedSessions: an entry lives as long as its
// session; a join with an unused cookie of a forgotten session is turned
// away, and a spent cookie is never taken twice.
func TestAcceptorForgetsClosedSessions(t *testing.T) {
	a := newTestAcceptor(t, AcceptorConfig{Handshake: Config{NumCookies: 3}})
	owner := "session"
	res := open(t, a, owner)
	assertLen(t, a, "established", 1, 0)
	if n := a.Cookies(res.SessID); n != 3 {
		t.Fatalf("%d cookies in the table, want 3", n)
	}
	v := serve(joinHello(t, res.SessID, res.Cookies[0], true), a.Accept(nil, nil, t0), t0)
	if v.Outcome != Join || v.Owner != owner || v.Result.JoinConnID != 1 {
		t.Fatalf("join verdict %+v", v)
	}
	v = serve(joinHello(t, res.SessID, res.Cookies[0], true), a.Accept(nil, nil, t0), t0)
	if v.Outcome != Refused || v.Reason != BadCookie || v.Owner != owner {
		t.Fatalf("spent cookie verdict %+v", v)
	}
	if _, err := a.IssueCookies(res.SessID, 1); err != nil {
		t.Fatal(err)
	}
	if n := a.Cookies(res.SessID); n != 3 {
		t.Fatalf("%d cookies after a spend and a replenishment, want 3", n)
	}
	a.Forget(res.SessID)
	assertLen(t, a, "forgotten", 0, 0)
	v = serve(joinHello(t, res.SessID, res.Cookies[1], false), a.Accept(nil, nil, t0), t0)
	if v.Outcome != Refused || v.Reason != BadCookie {
		t.Fatalf("join of a closed session: %+v", v)
	}
	assertLen(t, a, "after the refused join", 0, 0)
}

// TestAcceptorParksEarlyJoin: a join that finishes before its session's
// verdict was acted on waits in the table, and Established hands it over;
// one parked on a session that then fails is dropped with it.
func TestAcceptorParksEarlyJoin(t *testing.T) {
	a := newTestAcceptor(t, AcceptorConfig{})
	cm, err := NewClient(&Config{EnableTCPLS: true})
	if err != nil {
		t.Fatal(err)
	}
	initial := a.Accept("initial", nil, t0)
	initial.Feed(drain(cm), t0)
	var flight []byte
	for f := initial.Flight(); len(f) > 0; f = initial.Flight() {
		flight = append(flight, f...)
	}
	if cm.Feed(flight); !cm.Done() {
		t.Fatalf("client not done: %v", cm.Err())
	}
	res := cm.Result()
	join := a.Accept("join", nil, t0)
	if v := serve(joinHello(t, res.SessID, res.Cookies[0], true), join, t0); v.Outcome != Parked {
		t.Fatalf("early join verdict %+v", v)
	}
	initial.Feed(drain(cm), t0)
	if v := initial.Verdict(); v.Outcome != NewSession {
		t.Fatalf("initial verdict %+v", v)
	}
	if parked := a.Established(res.SessID, "owner"); len(parked) != 1 || parked[0] != join {
		t.Fatalf("Established handed back %v", parked)
	}

	// The same race, but the initial handshake dies before its verdict.
	cm, _ = NewClient(&Config{EnableTCPLS: true})
	initial = a.Accept("initial", nil, t0)
	initial.Feed(drain(cm), t0)
	flight = nil
	for f := initial.Flight(); len(f) > 0; f = initial.Flight() {
		flight = append(flight, f...)
	}
	cm.Feed(flight)
	res = cm.Result()
	join = a.Accept("join", nil, t0)
	serve(joinHello(t, res.SessID, res.Cookies[0], true), join, t0)
	assertLen(t, a, "parked", 2, 1)
	if v := initial.Close(io.EOF, t0); len(v.Drop) != 1 || v.Drop[0] != join {
		t.Fatalf("failed initial dropped %v", v.Drop)
	}
	assertLen(t, a, "dropped", 1, 0)
}

// refuser is an Admission that refuses what its flags say.
type refuser struct {
	conn, join, session bool
	released            int
}

var errRefused = errors.New("refused")

func (r *refuser) AdmitConn(net.Addr) (func(), error) {
	if r.conn {
		return nil, errRefused
	}
	return func() { r.released++ }, nil
}
func (r *refuser) AdmitJoin(net.Addr) bool { return !r.join }
func (r *refuser) AdmitSession(net.Addr) error {
	if r.session {
		return errRefused
	}
	return nil
}

// TestAcceptorAdmission: each admission refusal is a typed verdict; a
// refused join keeps its cookie, a shed session leaves no entry, and the
// admission slot is released exactly once per admitted connection.
func TestAcceptorAdmission(t *testing.T) {
	adm := &refuser{}
	a := newTestAcceptor(t, AcceptorConfig{Admission: adm})
	res := open(t, a, "owner")

	adm.join = true
	v := serve(joinHello(t, res.SessID, res.Cookies[0], false), a.Accept(nil, nil, t0), t0)
	if v.Outcome != Refused || v.Reason != RefusedJoin || v.Owner != "owner" {
		t.Fatalf("refused join verdict %+v", v)
	}
	if n := a.Cookies(res.SessID); n != 2 {
		t.Fatalf("admission spent a cookie: %d left", n)
	}

	adm.conn = true
	if v := a.Accept(nil, nil, t0).Verdict(); v.Outcome != Refused || v.Reason != RefusedConn {
		t.Fatalf("refused connect verdict %+v", v)
	}

	adm.conn, adm.session = false, true
	cm, _ := NewClient(&Config{EnableTCPLS: true})
	if v := serve(cm, a.Accept(nil, nil, t0), t0); v.Outcome != Refused || v.Reason != RefusedSession {
		t.Fatalf("shed session verdict %+v", v)
	}
	assertLen(t, a, "after the shed", 1, 0)
	if adm.released != 3 {
		t.Fatalf("%d admission slots released for 3 admitted connections", adm.released)
	}
}

// TestAcceptorEarlyDataGate: one gate for 0-RTT, ObserveFresh on the
// ticket's sealed issuance stamp: a fresh ticket's flight is accepted
// once, its replay and a ticket held past the window are refused into
// 1-RTT, still resumed.
func TestAcceptorEarlyDataGate(t *testing.T) {
	ks, err := resume.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	replay := resume.NewReplay(time.Second, 0, t0.Add(-time.Hour))
	a := newTestAcceptor(t, AcceptorConfig{Keys: ks, Replay: replay})
	psk := bytes.Repeat([]byte{7}, 32)
	offer := func(issued time.Time, ticket []byte) (Verdict, []byte) {
		if ticket == nil {
			if ticket, err = ks.SealAt(psk, issued); err != nil {
				t.Fatal(err)
			}
		}
		cm, err := NewClient(&Config{EnableTCPLS: true, PSK: psk, PSKTicket: ticket, EarlyData: []byte("early")})
		if err != nil {
			t.Fatal(err)
		}
		return serve(cm, a.Accept(nil, nil, t0), t0), ticket
	}
	v, ticket := offer(t0, nil)
	if v.Ticket != TicketOpened || v.Early != EarlyAccepted || string(v.Result.EarlyData) != "early" {
		t.Fatalf("fresh ticket: ticket %d early %d", v.Ticket, v.Early)
	}
	if v, _ = offer(t0, ticket); v.Ticket != TicketOpened || v.Early != EarlyRejected || v.Result.EarlyData != nil {
		t.Fatalf("replayed flight: ticket %d early %d", v.Ticket, v.Early)
	}
	if v, _ = offer(t0.Add(-2*time.Second), nil); !v.Result.Resumed || v.Early != EarlyRejected {
		t.Fatalf("held ticket: resumed %v early %d", v.Result.Resumed, v.Early)
	}
	if v, _ = offer(t0, []byte("forged ticket with enough bytes")); v.Ticket != TicketRejected || v.Early != NoEarly {
		t.Fatalf("forged ticket: ticket %d early %d", v.Ticket, v.Early)
	}
}

// FuzzAcceptor feeds arbitrary bytes to many pending handshakes beside a
// live session: nothing panics, and once each has failed or expired the
// table holds the live session alone.
func FuzzAcceptor(f *testing.F) {
	cert, err := NewCertificate("server.example")
	if err != nil {
		f.Fatal(err)
	}
	first := func(cfg *Config, fast bool) []byte {
		m, err := newClient(cfg, fast)
		if err != nil {
			f.Fatal(err)
		}
		return m.Flight()
	}
	f.Add(first(&Config{EnableTCPLS: true}, false), uint8(3))
	f.Add(first(&Config{EnableTCPLS: true, PSK: []byte("k"), PSKTicket: []byte("t"), EarlyData: []byte("e")}, false), uint8(1))
	f.Add(first(&Config{Join: &JoinTicket{ConnID: 1}}, true), uint8(7))
	f.Add(first(&Config{Join: &JoinTicket{ConnID: 1}}, false), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		a := NewAcceptor(AcceptorConfig{Handshake: Config{Certificate: cert, TCPLSServer: true}, Timeout: time.Second})
		cm, err := NewClient(&Config{EnableTCPLS: true})
		if err != nil {
			t.Fatal(err)
		}
		if v := serve(cm, a.Accept(nil, nil, t0), t0); v.Outcome != NewSession {
			t.Fatalf("initial handshake: %+v", v)
		}
		a.Established(cm.Result().SessID, "owner")
		k := int(n%8) + 1
		hs := make([]*Incoming, k)
		for i := range hs {
			hs[i] = a.Accept(nil, nil, t0)
		}
		for i := 0; len(data) > 0; i++ {
			cut := min(len(data), 1+i*7%61)
			h := hs[i%k]
			h.Feed(data[:cut], t0.Add(time.Duration(i)*time.Millisecond))
			for f := h.Flight(); len(f) > 0; f = h.Flight() {
			}
			h.Verdict()
			data = data[cut:]
		}
		joins := 0
		for _, h := range hs {
			switch v := h.Close(nil, t0.Add(time.Second)); v.Outcome {
			case Join:
				joins++
			case Refused:
			default:
				t.Fatalf("verdict %+v from arbitrary bytes", v)
			}
		}
		if s, p := a.Len(); s != 1 || p != 0 {
			t.Fatalf("%d entries and %d pending after every handshake ended (%d joins)", s, p, joins)
		}
	})
}
