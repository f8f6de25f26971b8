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
// later one a join that spends one of the server's cookies.
package simtcpls

import (
	"crypto/ed25519"
	"errors"
	"math"
	"math/rand"
	"strconv"
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

	// Handshake is this end's side of every handshake (Pair fills in a
	// TCPLS default), and Result its initial handshake's outcome.
	Handshake  *handshake.Config
	Result     *handshake.Result
	joins      joinTable      // server: the cookies Result issued
	handshakes []*simtcp.Conn // client: connections mid-handshake

	// OnEvent observes engine events after the endpoint's own handling.
	OnEvent func(ev core.Event)
	// OnLifecycle observes the driver's connection and recovery events.
	OnLifecycle func(ev driver.Event)
	// Paths are the redial targets of a supervised client.
	Paths []*sim.Path
	// OnStart hears of every connection this end starts, once its side
	// of the connection's handshake ended: where a client's Dial or a
	// server's Accept would return. The peer's end may start later.
	OnStart func(connID uint32)
	// OnEnd hears of the session's end: nil after an orderly close, else
	// the typed error that ended it.
	OnEnd func(err error)
}

// Pair creates a connected client/server endpoint pair with no paths;
// attach paths with AddPath. The endpoints only park on total path
// loss: the caller adds paths back itself.
func Pair(s *sim.Sim, cfg core.Config) (client, server *Endpoint) {
	return PairSupervised(s, cfg, nil, 1)
}

// serverName is the simulated server's identity.
const serverName = "sim.server"

// PairSupervised is Pair with the driver's reconnect supervisor armed on
// both ends (rc), its jitter drawn from seed: on total path loss the
// client redials its Paths, the server waits for the rejoin. The engines
// are keyed when the initial handshake over the first connection ends.
func PairSupervised(s *sim.Sim, cfg core.Config, rc *driver.ReconnectConfig, seed int64) (client, server *Endpoint) {
	cert, err := handshake.NewCertificate(serverName)
	if err != nil {
		panic(err) // the system's randomness failed
	}
	clk := clock{s, rand.New(rand.NewSource(seed))}
	mk := func(role core.Role, hs *handshake.Config) *Endpoint {
		e := &Endpoint{S: s, Sess: core.NewSession(role, handshake.Secrets{}, cfg), Handshake: hs}
		e.D = driver.New(e.Sess, driver.Config{
			Client:      role == core.RoleClient,
			Failover:    cfg.EnableFailover,
			UserTimeout: cfg.UserTimeout,
			Reconnect:   rc,
		}, clk, (*host)(e), 0)
		return e
	}
	client = mk(core.RoleClient, &handshake.Config{ServerName: serverName, EnableTCPLS: true, RootKeys: []ed25519.PublicKey{cert.Public}})
	server = mk(core.RoleServer, &handshake.Config{Certificate: cert, TCPLSServer: true})
	server.Handshake.Sessions = &server.joins
	client.peer = server
	server.peer = client
	return client, server
}

// joinTable validates join cookies against the ones the initial
// handshake issued, each once.
type joinTable struct {
	id      handshake.SessID
	cookies map[handshake.Cookie]bool
}

func (t *joinTable) ValidateJoin(id handshake.SessID, cookie handshake.Cookie) bool {
	if id != t.id || !t.cookies[cookie] {
		return false
	}
	delete(t.cookies, cookie)
	return true
}

// AddPath establishes a TCP connection over path and registers it with
// both engines under connID: the session's first connection carries the
// initial handshake, a later one a join with the client's next cookie.
// onReady, if non-nil, fires when both ends have started the connection.
func (e *Endpoint) AddPath(path *sim.Path, connID uint32, opts simtcp.Options, onReady func()) {
	e.connect(path, connID, nil, opts, onReady, nil)
}

// TryPath is AddPath with a failure callback: connecting over a dead
// path retries its SYN with backoff and eventually reports failure —
// the cost structure of Fig. 9's path hunting — and so does a
// connection reset before its handshake ended.
func (e *Endpoint) TryPath(path *sim.Path, connID uint32, opts simtcp.Options, onReady, onFail func()) {
	e.connect(path, connID, nil, opts, onReady, onFail)
}

// Join joins path i of Paths through the driver's join routine (a
// cookie, the next connection ID), as the supervisor's redials do.
func (e *Endpoint) Join(i int) error {
	c, err := e.D.Join(strconv.Itoa(i))
	if err != nil {
		return err
	}
	(*host)(e).Dial(c)
	return nil
}

// Handshakes lists the client's connections mid-handshake.
func (e *Endpoint) Handshakes() []*simtcp.Conn { return e.handshakes }

// connect brings up a connection over path: the TCP
// handshake, then the TLS or join exchange, each end starting the
// connection as its machine finishes. c is the client's joining
// connection, or nil for one the caller numbered. onFail runs on a reset
// before the client's end started.
func (e *Endpoint) connect(path *sim.Path, connID uint32, c *driver.Conn, opts simtcp.Options, onReady, onFail func()) *simtcp.Conn {
	cl, sv := simtcp.ConnectOn(e.S, path.AtoB, path.BtoA, opts, opts)
	e.handshakes = append(e.handshakes, cl)
	var cm *handshake.Machine
	started := 0 // ends that started the connection
	up := func(ep *Endpoint, c *driver.Conn, tc *simtcp.Conn, m *handshake.Machine) {
		ep.start(c, tc, m.Leftover())
		if ep.OnStart != nil {
			ep.OnStart(c.ID)
		}
		if started++; started == 2 && onReady != nil {
			onReady()
		}
	}
	// A reset before the client's end started ends the attempt; a reserved
	// cookie is spent once the hello is on the wire.
	cl.OnReset = func() {
		if !e.dropHandshake(cl) {
			return
		}
		if c != nil {
			e.D.Abort(c, cm != nil, errors.New("simtcpls: join failed"))
		}
		if onFail != nil {
			onFail()
		}
	}
	cl.OnEstablished = func() {
		var err error
		switch {
		case e.Result == nil:
			cm, err = handshake.NewClient(e.Handshake)
		case c == nil && len(e.D.Cookies) > 0:
			// A join the caller numbered itself takes the next cookie.
			c = e.D.Add(connID, "")
			c.Cookie, e.D.Cookies = e.D.Cookies[0], e.D.Cookies[1:]
			fallthrough
		case c != nil:
			cfg := *e.Handshake
			cfg.Join = &handshake.JoinTicket{SessID: e.Result.SessID, Cookie: c.Cookie, ConnID: c.ID}
			cfg.PSK, cfg.PSKTicket, cfg.EarlyData = nil, nil, nil
			cm, err = handshake.NewClient(&cfg)
		default:
			err = driver.ErrNoCookies
		}
		if err != nil {
			cl.Reset()
			return
		}
		cl.Write(cm.Flight())
	}
	cl.OnRecv = func(p []byte) {
		if cm.Feed(p) != nil {
			cl.Reset()
			return
		}
		if cl.Write(cm.Flight()); !cm.Done() {
			return
		}
		e.dropHandshake(cl)
		if c == nil {
			e.keyed(cm.Result())
			c = e.D.Add(connID, "")
		}
		up(e, c, cl, cm)
	}
	sm := handshake.NewServer(e.peer.Handshake)
	sv.OnRecv = func(p []byte) {
		if sm.Feed(p) != nil {
			sv.Reset()
			return
		}
		// A server hands out its ServerHello, then the rest of its flight.
		for f := sm.Flight(); len(f) > 0; f = sm.Flight() {
			sv.Write(f)
		}
		if !sm.Done() {
			return
		}
		res, id := sm.Result(), uint32(0)
		if res.JoinAccepted {
			id = res.JoinConnID
		} else {
			e.peer.keyed(res)
		}
		up(e.peer, e.peer.D.Add(id, ""), sv, sm)
	}
	return cl
}

// keyed takes the initial handshake's outcome: the engine's keys, and the
// join cookies: the client's to spend, or the server's to check (its
// Handshake is the one with a join table).
func (e *Endpoint) keyed(res *handshake.Result) {
	e.Result = res
	e.Sess.Key(res.Secrets)
	if e.Handshake.Sessions == nil {
		for _, ck := range res.Cookies {
			e.D.Cookies = append(e.D.Cookies, ck)
		}
		return
	}
	e.joins = joinTable{id: res.SessID, cookies: make(map[handshake.Cookie]bool, len(res.Cookies))}
	for _, ck := range res.Cookies {
		e.joins.cookies[ck] = true
	}
}

// dropHandshake forgets cl's handshake; false if it was not pending.
func (e *Endpoint) dropHandshake(cl *simtcp.Conn) bool {
	for i, h := range e.handshakes {
		if h == cl {
			e.handshakes = append(e.handshakes[:i], e.handshakes[i+1:]...)
			return true
		}
	}
	return false
}

// start wires tc as c's transport and puts the connection to work,
// beginning with what its handshake read past its own records.
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
	if err := e.D.Start(c, t, leftover, false); err != nil {
		tc.Reset()
	}
}

// conn is the driver's transport over one simulated TCP connection.
type conn struct {
	e     *Endpoint
	c     *driver.Conn
	tc    *simtcp.Conn
	batch [][]byte
	buf   []byte
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

func (t *conn) Shut(bool) {}

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

// Dial joins the path c.Addr names; an attempt still short of ready at
// c.Deadline is reset, and connect aborts it.
func (h *host) Dial(c *driver.Conn) {
	e := (*Endpoint)(h)
	i, _ := strconv.Atoi(c.Addr)
	p := e.Paths[i]
	done := false
	cl := e.connect(p, c.ID, c, simtcp.Options{}, func() { done = true }, func() { done = true })
	if !c.Deadline.IsZero() {
		e.S.After(c.Deadline.Sub(epoch.Add(e.S.Now())), func() {
			if !done {
				cl.Reset()
			}
		})
	}
}

func (h *host) FlushError(err error) { panic("simtcpls: flush: " + err.Error()) }

func (h *host) End(err error) {
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
