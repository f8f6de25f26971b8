// Package simtcpls runs the real TCPLS protocol engine (internal/core) —
// actual record encryption, trial decryption, acknowledgments, SYNC
// resynchronization, coupled-stream reordering — over the simulated TCP
// stack. This is the configuration behind the paper's Mininet
// experiments (Figs. 8–13): protocol behaviour is the genuine article,
// only the network and kernel TCP underneath are modeled.
//
// Each endpoint runs its engine through internal/driver, the same driver
// as the production wrapper, on the virtual clock: simtcp.Conn is the
// transport, and the simulator's single goroutine is the lock. Every
// connection opens with the real handshake (internal/handshake's
// machine) over the simulated TCP: the session's first connection runs
// the full, resumed or 0-RTT exchange that keys both engines, and each
// later one a join that spends one of the server's cookies. The client's
// driver runs its handshakes, as it does in production, with their
// deadlines and cookie spends. The server accepts through
// handshake.Acceptor, the production listener's policy: admission, the
// handshake deadline, the ticket and 0-RTT gates, and the session table
// with its cookies.
package simtcpls

import (
	"crypto/ed25519"
	"errors"
	"math"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/driver"
	"tcpls/internal/handshake"
	"tcpls/internal/sim"
	"tcpls/internal/simtcp"
)

// epoch anchors simulated time onto the wall-clock type the engine uses.
var epoch = time.Unix(0, 0)

// clock is the driver's clock on the simulator: virtual time, events
// that cancel by flag, and a seeded jitter source.
type clock struct {
	s   *sim.Sim
	rng *rand.Rand
}

func (c clock) Now() time.Time { return epoch.Add(c.s.Now()) }

func (c clock) After(d time.Duration, f func()) func() {
	stopped := false
	c.s.After(d, func() {
		if !stopped {
			f()
		}
	})
	return func() { stopped = true }
}

func (c clock) Int63n(n int64) int64 { return c.rng.Int63n(n) }

// Endpoint is one side of a simulated TCPLS session.
type Endpoint struct {
	S    *sim.Sim
	Sess *core.Session
	D    *driver.Driver
	peer *Endpoint

	// Handshake is the client's initial handshake, which its driver runs
	// (Pair fills in a TCPLS default; joins take the server name from
	// it), and Acceptor the server's side of every handshake: the same
	// acceptor as a production listener, on the virtual clock. Result is
	// the initial handshake's outcome.
	Handshake *handshake.Config
	Acceptor  *handshake.Acceptor
	Result    *handshake.Result

	// Remote is the address the server's acceptor sees for this client's
	// connections, and DialTimeout the driver's deadline for a connection
	// the caller starts, counted from its SYN until it is Live (zero:
	// none); the supervisor's redials carry their own. A join the caller
	// numbered is under it from the end of its TCP handshake: a SYN that
	// never completes fails by simtcp's retries.
	Remote      net.Addr
	DialTimeout time.Duration
	// OnVerdict hears of every verdict the server's acceptor reached on
	// this pair's connections.
	OnVerdict func(v handshake.Verdict)

	// OnEvent observes engine events after the endpoint's own handling.
	OnEvent func(ev core.Event)
	// OnLifecycle observes the driver's connection and recovery events.
	OnLifecycle func(ev driver.Event)
	// Paths are the redial targets of a supervised client, and the paths
	// a fault schedule names by number (fault.Play, with the client as
	// its Net).
	Paths []*sim.Path
	// OnStart hears of every connection this end starts, once its side
	// of the connection's handshake ended: where a client's Dial or a
	// server's Accept would return. A fast join starts with its hello, as
	// JoinPathFast queues its first bytes then. The peer's end may start
	// later.
	OnStart func(connID uint32)
	// OnEnd hears of the session's end: nil after an orderly close, else
	// the typed error that ended it.
	OnEnd func(err error)
}

// Pair creates a connected client/server endpoint pair with no paths;
// attach paths with AddPath. The endpoints only park on total path
// loss: the caller adds paths back itself.
func Pair(s *sim.Sim, cfg core.Config) (client, server *Endpoint) {
	return PairSupervised(s, cfg, nil, 1, nil)
}

// identity is the simulated server's certificate, one per process.
var identity = sync.OnceValue(func() *handshake.Certificate {
	cert, err := handshake.NewCertificate("sim.server")
	if err != nil {
		panic(err) // the system's randomness failed
	}
	return cert
})

// NewAcceptor builds an acceptor for simulated servers: cfg, with the
// simulated server's identity and TCPLS on.
func NewAcceptor(cfg handshake.AcceptorConfig) *handshake.Acceptor {
	cfg.Handshake.Certificate, cfg.Handshake.TCPLSServer = identity(), true
	return handshake.NewAcceptor(cfg)
}

// PairSupervised is Pair with the driver's reconnect supervisor armed on
// both ends (rc), its jitter drawn from seed: on total path loss the
// client redials its Paths, the server waits for the rejoin. The server
// accepts through acc, which several pairs may share as one server
// process does; nil gives the pair a default acceptor of its own. The
// engines are keyed when the initial handshake over the first
// connection ends.
func PairSupervised(s *sim.Sim, cfg core.Config, rc *driver.ReconnectConfig, seed int64, acc *handshake.Acceptor) (client, server *Endpoint) {
	if acc == nil {
		acc = NewAcceptor(handshake.AcceptorConfig{})
	}
	clk := clock{s, rand.New(rand.NewSource(seed))}
	mk := func(role core.Role, hs *handshake.Config) *Endpoint {
		e := &Endpoint{S: s, Sess: core.NewSession(role, handshake.Secrets{}, cfg), Handshake: hs}
		e.D = driver.New(e.Sess, driver.Config{
			Client:      role == core.RoleClient,
			Failover:    cfg.EnableFailover,
			UserTimeout: cfg.UserTimeout,
			Reconnect:   rc,
			Handshake:   hs,
		}, clk, (*host)(e), 0)
		return e
	}
	client = mk(core.RoleClient, &handshake.Config{ServerName: identity().Name, EnableTCPLS: true, RootKeys: []ed25519.PublicKey{identity().Public}})
	server = mk(core.RoleServer, nil)
	server.Acceptor = acc
	client.peer = server
	server.peer = client
	return client, server
}

// AddPath establishes a TCP connection over path and registers it with
// both engines under connID: the session's first connection carries the
// initial handshake, a later one a join with the client's next cookie.
// onReady, if non-nil, fires when both ends have started the connection.
func (e *Endpoint) AddPath(path *sim.Path, connID uint32, opts simtcp.Options, onReady func()) {
	e.connect(path, connID, nil, opts, false, onReady, nil)
}

// TryPath is AddPath with a failure callback: connecting over a dead
// path retries its SYN with backoff and eventually reports failure —
// the cost structure of Fig. 9's path hunting — and so does a
// connection reset before the client's end started it.
func (e *Endpoint) TryPath(path *sim.Path, connID uint32, opts simtcp.Options, onReady, onFail func()) {
	e.connect(path, connID, nil, opts, false, onReady, onFail)
}

// Join joins path i of Paths through the driver's join routine (a
// cookie, the next connection ID), as the supervisor's redials do; fast
// makes it a single-flight join.
func (e *Endpoint) Join(i int, fast bool) error {
	var deadline time.Time
	if e.DialTimeout > 0 {
		deadline = epoch.Add(e.S.Now() + e.DialTimeout)
	}
	c, err := e.D.Join(strconv.Itoa(i), deadline)
	if err == nil {
		e.dial(c, fast)
	}
	return err
}

// dial connects the path c.Addr names.
func (e *Endpoint) dial(c *driver.Conn, fast bool) {
	i, _ := strconv.Atoi(c.Addr)
	e.connect(e.Paths[i], c.ID, c, simtcp.Options{}, fast, nil, nil)
}

// connect brings up a client connection over path: the simulated TCP
// handshake, then one driver call (Open) that runs the client's TLS or
// join handshake on it, while the server's end runs through its
// acceptor. c is a connection the driver reserved (a join toward one of
// Paths), or nil for one the caller numbered, which registers at its SYN
// so that its deadline covers the connect; a join takes its cookie at
// Open, so a probe over a dead path holds none through its SYN retries
// (Fig. 9's parallel hunts). onFail runs on a reset before the client's
// end started, and on a connection the driver refused at its SYN.
func (e *Endpoint) connect(path *sim.Path, connID uint32, c *driver.Conn, opts simtcp.Options, fast bool, onReady, onFail func()) {
	cl, sv := simtcp.ConnectOn(e.S, path.AtoB, path.BtoA, opts, opts)
	ready := 0 // ends that started the connection
	t := &conn{e: e, tc: cl, path: path, hs: true, fast: fast, ready: func() {
		if ready++; ready == 2 && onReady != nil {
			onReady()
		}
	}}
	if c == nil {
		var deadline time.Time
		if e.DialTimeout > 0 {
			deadline = epoch.Add(e.S.Now() + e.DialTimeout)
		}
		c, _ = e.D.Connect(connID, "", deadline)
	}
	if c != nil {
		t.c, c.T = c, t // its deadline resets the SYN's connection too
	}
	cl.OnEstablished = func() {
		if t.c == nil {
			cl.Reset()
			return
		}
		if e.D.Open(t.c, t, fast) == nil && fast {
			t.started()
		}
	}
	cl.OnRecv = func(p []byte) {
		// Input the engine refuses ends the session, as at a real socket.
		if err := e.D.Receive(t.c, p); err != nil {
			e.D.Fail(err)
		}
	}
	cl.OnReset = func() {
		if t.c != nil {
			e.D.Down(t.c, false)
		}
		if t.hs {
			t.hs = false
			if onFail != nil {
				onFail()
			}
		}
	}
	e.peer.accept(sv, func(ep *Endpoint, c *driver.Conn, tc *simtcp.Conn, leftover []byte) {
		ep.start(c, tc, leftover)
		if ep.OnStart != nil {
			ep.OnStart(c.ID)
		}
		t.ready()
	})
}

// accepted is a server connection as its acceptor holds it: the simulated
// TCP connection, how to start it once a session takes it, and what
// arrived while it was parked.
type accepted struct {
	tc     *simtcp.Conn
	up     func(ep *Endpoint, c *driver.Conn, tc *simtcp.Conn, leftover []byte)
	judged bool // its verdict was acted on
	held   []byte
}

// accept runs the server's end of tc through the acceptor, from the SYN
// on: admission, the deadline on the virtual clock, the handshake, and
// the verdict.
func (e *Endpoint) accept(tc *simtcp.Conn, up func(*Endpoint, *driver.Conn, *simtcp.Conn, []byte)) {
	now := func() time.Time { return epoch.Add(e.S.Now()) }
	var h *handshake.Incoming
	tc.OnEstablished = func() {
		h = e.Acceptor.Accept(&accepted{tc: tc, up: up}, e.peer.Remote, now())
		if !h.Deadline.IsZero() {
			e.S.After(h.Deadline.Sub(now()), func() { e.served(h.Close(handshake.ErrExpired, now()), h) })
		}
		e.served(h.Verdict(), h)
	}
	tc.OnRecv = func(p []byte) {
		if h.Verdict().Outcome == handshake.Parked {
			a := h.Conn.(*accepted)
			a.held = append(a.held, p...)
			return
		}
		h.Feed(p, now())
		// A server hands out its ServerHello, then the rest of its flight.
		for f := h.Flight(); len(f) > 0; f = h.Flight() {
			tc.Write(f)
		}
		e.served(h.Verdict(), h)
	}
	tc.OnReset = func() {
		if h != nil {
			e.served(h.Close(errors.New("simtcpls: reset"), now()), h)
		}
	}
}

// served acts on a verdict the first time it is reached: a new session
// keys this end, a join starts on its session's end, a refusal resets.
// OnVerdict hears of it after.
func (e *Endpoint) served(v handshake.Verdict, h *handshake.Incoming) {
	a := h.Conn.(*accepted)
	if v.Outcome == handshake.Handshaking || a.judged {
		return
	}
	a.judged = true
	switch v.Outcome {
	case handshake.Refused:
		a.tc.Reset()
		for _, j := range v.Drop {
			j.Conn.(*accepted).tc.Reset()
		}
	case handshake.NewSession:
		e.Result = v.Result
		e.Sess.Key(v.Result.Secrets)
		e.adopt(h, 0)
		for _, j := range e.Acceptor.Established(v.Result.SessID, e) {
			e.adopt(j, j.Verdict().Result.JoinConnID)
		}
	case handshake.Join:
		v.Owner.(*Endpoint).adopt(h, v.Result.JoinConnID)
	}
	if e.OnVerdict != nil {
		e.OnVerdict(v)
	}
}

// adopt starts an accepted connection as id on this end.
func (e *Endpoint) adopt(h *handshake.Incoming, id uint32) {
	a := h.Conn.(*accepted)
	a.up(e, e.D.Add(id, ""), a.tc, append(h.Leftover(), a.held...))
}

// IssueCookies replenishes the client's join cookies (§3.3.2): n fresh
// ones go into the acceptor's table, then over conn to the client.
func (e *Endpoint) IssueCookies(conn uint32, n int) error {
	cookies, err := e.Acceptor.IssueCookies(e.Result.SessID, n)
	if err == nil {
		e.Sess.Note("cookie_issued", conn, 0, 0, n)
		err = e.Sess.SendNewCookies(conn, cookies)
		e.D.Flush()
	}
	return err
}

// start wires tc as the transport of c, the server's end of an accepted
// connection, and puts it to work, beginning with what its handshake read
// past its own records.
func (e *Endpoint) start(c *driver.Conn, tc *simtcp.Conn, leftover []byte) {
	t := &conn{e: e, c: c, tc: tc}
	tc.OnRecv = func(p []byte) {
		// Input on a connection the engine declared failed dies here, as
		// it does at a real socket: records lost with a failed connection
		// are attributable, records on live connections always arrive.
		// Input the engine refuses ends the session, as at a real socket.
		if err := e.D.Receive(c, p); err != nil {
			e.D.Fail(err)
		}
	}
	tc.OnReset = func() { e.D.Down(c, false) }
	tc.OnAcked = e.D.Flush
	if err := e.D.Start(c, t, leftover); err != nil {
		tc.Reset()
	}
}

// conn is the driver's transport over one simulated TCP connection.
type conn struct {
	e     *Endpoint
	c     *driver.Conn
	tc    *simtcp.Conn
	path  *sim.Path // client: the path it runs over
	hs    bool      // client: the driver runs its handshake still
	fast  bool      // client: a single-flight join, started at its hello
	ready func()    // client: this end's start, toward the caller's onReady
	batch [][]byte
	buf   []byte
}

// started is the client end's start of the connection.
func (t *conn) started() {
	t.tc.OnAcked = t.e.D.Flush
	if t.e.OnStart != nil {
		t.e.OnStart(t.c.ID)
	}
	t.ready()
}

// Wake writes everything queued as one write: one send attempt per flush
// keeps the packet schedule — and with it every figure and fleet
// fingerprint — independent of how the engine cut its output into chunks.
func (t *conn) Wake() {
	if t.batch, t.buf = t.e.D.Pull(t.c, t.batch[:0], math.MaxInt), t.buf[:0]; len(t.batch) == 0 {
		return
	}
	for _, b := range t.batch {
		t.buf = append(t.buf, b...)
	}
	written := int64(len(t.buf))
	if t.tc.Failed() {
		written = 0 // a failed connection's bytes drop with it
	}
	t.tc.Write(t.buf)
	t.e.D.Settle(t.c, t.batch, written, nil)
}

// Shut resets, as a closed socket would, a client connection the driver
// gave up on before it was Live: in its handshake, or a join the peer had
// not adopted by its deadline. A started one stays up until a fault ends
// it.
func (t *conn) Shut(graceful bool) {
	if t.hs || !graceful && t.c.State == driver.Joining {
		t.tc.Reset()
	}
}

// host is the endpoint as its driver sees it.
type host Endpoint

func (h *host) Event(ev core.Event) {
	if h.OnEvent != nil {
		h.OnEvent(ev)
	}
}

func (h *host) Lifecycle(ev driver.Event) {
	if h.OnLifecycle != nil {
		h.OnLifecycle(ev)
	}
}

func (h *host) Candidates() []string {
	out := make([]string, len(h.Paths))
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}

// Dial is the supervisor's redial of the path c.Addr names.
func (h *host) Dial(c *driver.Conn) { (*Endpoint)(h).dial(c, false) }

// Connected is the client end's start of a connection whose handshake
// ended; on the first one, it keeps the handshake's outcome. A fast
// join started at its hello.
func (h *host) Connected(c *driver.Conn, res *handshake.Result) {
	if res != nil {
		h.Result = res
	}
	t := c.T.(*conn)
	if t.hs = false; !t.fast {
		t.started()
	}
}

func (h *host) FlushError(err error) { panic("simtcpls: flush: " + err.Error()) }

func (h *host) End(err error) {
	if h.Acceptor != nil && h.Result != nil {
		h.Acceptor.Forget(h.Result.SessID)
	}
	if h.OnEnd != nil {
		h.OnEnd(err)
	}
}

// Conn exposes the underlying simulated TCP connection (for tcp_info-
// style statistics, CC swaps, and fault injection in experiments).
func (e *Endpoint) Conn(connID uint32) *simtcp.Conn {
	if c := e.D.Conn(connID); c != nil {
		if t, ok := c.T.(*conn); ok {
			return t.tc
		}
	}
	return nil
}

// Sessions, PathsOf and Reset make a client end the fault.Net of one
// session over its Paths.
func (e *Endpoint) Sessions() int { return 1 }

// PathsOf returns the client's Paths.
func (e *Endpoint) PathsOf(int) []*sim.Path { return e.Paths }

// Reset resets each of this end's live connections over Paths[p].
func (e *Endpoint) Reset(_, p int) {
	for _, c := range e.D.Conns() {
		if t, ok := c.T.(*conn); ok && t.path == e.Paths[p] && !t.tc.Failed() {
			t.tc.Reset()
		}
	}
}

// Flush transmits any queued engine output (exported for experiment
// drivers that interact with the Session directly).
func (e *Endpoint) Flush() { e.D.Flush() }

// Write queues stream data and transmits.
func (e *Endpoint) Write(streamID uint32, p []byte) error {
	if _, err := e.Sess.Write(streamID, p); err != nil {
		return err
	}
	e.D.Flush()
	return nil
}

// WriteCoupled queues coupled-group data and transmits.
func (e *Endpoint) WriteCoupled(p []byte) error {
	if _, err := e.Sess.WriteCoupled(p); err != nil {
		return err
	}
	e.D.Flush()
	return nil
}
