package driver

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/handshake"
)

// acceptAll lets every join cookie through.
type acceptAll struct{}

func (acceptAll) ValidateJoin(handshake.SessID, handshake.Cookie) bool { return true }

// serverEnd is a client connection's transport to a server's handshake
// machine: what the client writes feeds the machine, whose flights are
// fed back to the client. cut fails every write before its first byte,
// and mute keeps the server from answering.
type serverEnd struct {
	d         *Driver
	c         *Conn
	m         *handshake.Machine
	cut, mute bool
	shuts     int
}

func (s *serverEnd) Wake() {
	batch := s.d.Pull(s.c, nil, 64)
	if len(batch) == 0 {
		return
	}
	var n int64
	var err error
	if s.cut {
		err = errors.New("cut")
	} else {
		for _, b := range batch {
			n += int64(len(b))
			s.m.Feed(b)
		}
	}
	s.d.Settle(s.c, batch, n, err)
	if s.mute {
		return
	}
	for f := s.m.Flight(); len(f) > 0; f = s.m.Flight() {
		s.d.Receive(s.c, f)
	}
}

func (s *serverEnd) Shut(bool) { s.shuts++ }

// connectHost records the handshake outcomes the driver hands over.
type connectHost struct {
	host
	results []*handshake.Result
}

func (h *connectHost) Connected(_ *Conn, res *handshake.Result) { h.results = append(h.results, res) }

// clientDriver returns a client driver over an engine without keys, and
// the server machine's configuration.
func clientDriver(t *testing.T) (*Driver, *connectHost, *manualClock, *handshake.Config) {
	cert, err := handshake.NewCertificate("test.server")
	if err != nil {
		t.Fatal(err)
	}
	clk := newClock()
	h := &connectHost{host: host{clk: clk}}
	hs := &handshake.Config{ServerName: cert.Name, EnableTCPLS: true}
	d := New(core.NewSession(core.RoleClient, handshake.Secrets{}, core.Config{}), Config{Client: true, Handshake: hs}, clk, h, 1)
	return d, h, clk, &handshake.Config{Certificate: cert, TCPLSServer: true, NumCookies: 3, Sessions: acceptAll{}}
}

// TestConnectKeysTheEngine: the session's first connection runs the
// initial handshake in the driver, which keys the engine, takes the
// cookies and hands the outcome to the host once; the connection is
// Live at once.
func TestConnectKeysTheEngine(t *testing.T) {
	d, h, _, scfg := clientDriver(t)
	c, err := d.Connect(0, "", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	end := &serverEnd{d: d, c: c, m: handshake.NewServer(scfg)}
	if err := d.Open(c, end, false); err != nil {
		t.Fatal(err)
	}
	if c.State != Live || !c.entered || len(h.results) != 1 || h.results[0] == nil {
		t.Fatalf("conn %v, entered %v, outcomes %v: want Live with one outcome", c.State, c.entered, h.results)
	}
	srv := end.m.Result()
	if srv == nil || !bytes.Equal(srv.Secrets.ClientApp, h.results[0].Secrets.ClientApp) || len(d.Cookies) != 3 {
		t.Fatalf("server done %v, %d cookies: want matching keys and 3 cookies", srv != nil, len(d.Cookies))
	}
}

// TestJoinSpendsCookieOnceHelloWritten: a join that fails before a hello
// byte reached its transport hands its cookie back; one whose hello went
// out, or may have — its deadline fell while the writer held the hello —
// has spent it.
func TestJoinSpendsCookieOnceHelloWritten(t *testing.T) {
	d, _, clk, scfg := clientDriver(t)
	d.keyed = true
	d.Engine.Key(secrets(t))
	d.Cookies = [][16]byte{{1}, {2}, {3}}

	c, _ := d.Join("a", time.Time{})
	d.Abort(c, errors.New("connect refused"))
	if len(d.Cookies) != 3 || d.Conn(c.ID) != nil {
		t.Fatalf("%d cookies after a refused connect, want 3", len(d.Cookies))
	}
	c, _ = d.Join("a", time.Time{})
	if err := d.Open(c, &serverEnd{d: d, c: c, m: handshake.NewServer(scfg), cut: true}, false); err != nil {
		t.Fatal(err)
	}
	if c.State != Failed || len(d.Cookies) != 3 {
		t.Fatalf("conn %v, %d cookies after a hello that never left, want failed and 3", c.State, len(d.Cookies))
	}
	c, _ = d.Join("a", time.Time{})
	d.Open(c, &serverEnd{d: d, c: c, m: handshake.NewServer(scfg), mute: true}, false)
	d.Down(c, true)
	if c.State != Failed || len(d.Cookies) != 2 {
		t.Fatalf("conn %v, %d cookies after a hello that left, want failed and 2", c.State, len(d.Cookies))
	}

	c, _ = d.Join("a", clk.Now().Add(time.Second))
	d.Open(c, Nop{}, false)
	hello := d.Pull(c, nil, 64)
	clk.advance(time.Second) // the deadline, between the write and its Settle
	d.Settle(c, hello, int64(len(hello[0])), nil)
	if c.State != Failed || len(d.Cookies) != 1 || d.Cookies[0] != [16]byte{3} {
		t.Fatalf("conn %v, cookies %v after a deadline during the hello's write, want failed and only cookie 3", c.State, d.Cookies)
	}
}

// TestConnectDeadline: the driver fails a client connection that is not
// Live by its deadline — still in its handshake, or a join the peer has
// not adopted — with ErrDeadline, and shuts its transport.
func TestConnectDeadline(t *testing.T) {
	d, h, clk, scfg := clientDriver(t)
	d.keyed = true
	d.Engine.Key(secrets(t))
	d.Cookies = [][16]byte{{1}, {2}}

	c, _ := d.Join("a", clk.Now().Add(time.Second))
	silent := &serverEnd{d: d, c: c, m: handshake.NewServer(scfg), mute: true}
	d.Open(c, silent, false)
	clk.advance(999 * time.Millisecond)
	if c.State != Connecting {
		t.Fatalf("conn %v before its deadline", c.State)
	}
	clk.advance(time.Millisecond)
	if c.State != Failed || !errors.Is(c.Err, ErrDeadline) || silent.shuts != 1 || d.Conn(c.ID) != nil {
		t.Fatalf("conn %v (%v), %d shuts: want failed at its deadline and shut", c.State, c.Err, silent.shuts)
	}

	c, _ = d.Join("b", clk.Now().Add(time.Second))
	unadopted := &serverEnd{d: d, c: c, m: handshake.NewServer(scfg)}
	d.Open(c, unadopted, false)
	if c.State != Joining || h.results[len(h.results)-1] != nil {
		t.Fatalf("join %v after its handshake, want Joining with no outcome for the host", c.State)
	}
	clk.advance(time.Second)
	if c.State != Failed || !errors.Is(c.Err, ErrDeadline) || unadopted.shuts != 1 || h.count(ConnDown) != 1 {
		t.Fatalf("join %v (%v), %d shuts, %d conn_down: want failed at its deadline", c.State, c.Err, unadopted.shuts, h.count(ConnDown))
	}
}

// TestFastJoinEntersAtItsHello: a single-flight join is in the engine
// from its hello on, and Live at the server's ack, with no adoption
// probe: the ack says the server took it.
func TestFastJoinEntersAtItsHello(t *testing.T) {
	d, _, _, scfg := clientDriver(t)
	d.keyed = true
	d.Engine.Key(secrets(t))
	d.Cookies = [][16]byte{{1}}
	c, _ := d.Join("a", time.Time{})
	end := &serverEnd{d: d, c: c, m: handshake.NewServer(scfg), mute: true}
	d.Open(c, end, true)
	if !c.entered || c.State != Connecting {
		t.Fatalf("fast join entered %v, %v at its hello", c.entered, c.State)
	}
	for f := end.m.Flight(); len(f) > 0; f = end.m.Flight() {
		d.Receive(c, f)
	}
	if c.State != Live {
		t.Fatalf("fast join %v after the ack, want Live", c.State)
	}
}
