// Package simtcpls runs the real TCPLS protocol engine (internal/core) —
// actual record encryption, trial decryption, acknowledgments, SYNC
// resynchronization, coupled-stream reordering — over the simulated TCP
// stack. This is the configuration behind the paper's Mininet
// experiments (Figs. 8–13): protocol behaviour is the genuine article,
// only the network and kernel TCP underneath are modeled.
//
// Each endpoint runs its engine through internal/driver, the same driver
// as the production wrapper, on the virtual clock: simtcp.Conn is the
// transport, and the simulator's single goroutine is the lock.
package simtcpls

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/driver"
	"tcpls/internal/handshake"
	"tcpls/internal/record"
	"tcpls/internal/sim"
	"tcpls/internal/simtcp"
)

// epoch anchors simulated time onto the wall-clock type the engine uses.
var epoch = time.Unix(0, 0)

// testSecrets builds the session secrets both endpoints share. The
// handshake itself is modeled as a time cost (see AddPath); its key
// schedule output is substituted with deterministic secrets so the
// record layer — the part TCPLS extends — runs for real.
func testSecrets() handshake.Secrets {
	suite, err := record.SuiteByID(record.TLSAES128GCMSHA256)
	if err != nil {
		panic(err)
	}
	mk := func(tag byte) []byte {
		b := make([]byte, 32)
		for i := range b {
			b[i] = tag
		}
		return b
	}
	return handshake.Secrets{Suite: suite, ClientApp: mk(0xc1), ServerApp: mk(0x51)}
}

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

	// OnEvent observes engine events after the endpoint's own handling.
	OnEvent func(ev core.Event)
	// OnLifecycle observes the driver's connection and recovery events.
	OnLifecycle func(ev driver.Event)
	// Paths are the redial targets of a supervised client, and
	// OnJoined hears of every connection the supervisor brings up.
	Paths    []*sim.Path
	OnJoined func(connID uint32)
}

// Pair creates a connected client/server endpoint pair with no paths;
// attach paths with AddPath. The endpoints only park on total path
// loss: the caller adds paths back itself.
func Pair(s *sim.Sim, cfg core.Config) (client, server *Endpoint) {
	return PairSupervised(s, cfg, nil, 1)
}

// PairSupervised is Pair with the driver's reconnect supervisor armed on
// both ends (rc), its jitter drawn from seed: on total path loss the
// client redials its Paths, the server waits for the rejoin.
func PairSupervised(s *sim.Sim, cfg core.Config, rc *driver.ReconnectConfig, seed int64) (client, server *Endpoint) {
	sec := testSecrets()
	clk := clock{s, rand.New(rand.NewSource(seed))}
	mk := func(role core.Role) *Endpoint {
		e := &Endpoint{S: s, Sess: core.NewSession(role, sec, cfg)}
		e.D = driver.New(e.Sess, driver.Config{
			Client:      role == core.RoleClient,
			Failover:    cfg.EnableFailover,
			UserTimeout: cfg.UserTimeout,
			Reconnect:   rc,
		}, clk, (*host)(e), 0)
		return e
	}
	client, server = mk(core.RoleClient), mk(core.RoleServer)
	client.peer = server
	server.peer = client
	return client, server
}

// AddPath establishes a TCP connection over path and registers it with
// both engines under connID. The initial connection (connID 0) pays the
// TCP handshake plus one RTT of TLS handshake; joined connections pay
// the TCP handshake plus one RTT for the TCPLS JOIN exchange (Fig. 3).
// onReady, if non-nil, fires when the connection is usable.
func (e *Endpoint) AddPath(path *sim.Path, connID uint32, opts simtcp.Options, onReady func()) {
	e.connect(path.AtoB, path.BtoA, connID, nil, opts, onReady, nil)
}

// TryPath is AddPath with a failure callback: connecting over a dead
// path retries its SYN with backoff and eventually reports failure —
// the cost structure of Fig. 9's path hunting.
func (e *Endpoint) TryPath(path *sim.Path, connID uint32, opts simtcp.Options, onReady, onFail func()) {
	e.connect(path.AtoB, path.BtoA, connID, nil, opts, onReady, onFail)
}

// AddPathOn is AddPath over explicit (possibly shared) links — the
// shared-bottleneck topology of Fig. 12.
func (e *Endpoint) AddPathOn(toServer, toClient *sim.Link, connID uint32, opts simtcp.Options, onReady func()) {
	e.connect(toServer, toClient, connID, nil, opts, onReady, nil)
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

// connect brings up a connection over the given links: the TCP handshake,
// one more round trip for the TLS or JOIN exchange, and then the driver
// starts it on both ends. c is the client's joining connection, or nil
// for a connection the caller numbered itself. onFail runs on a reset
// before that. The returned client conn lets a caller abort the attempt.
func (e *Endpoint) connect(toServer, toClient *sim.Link, connID uint32, c *driver.Conn, opts simtcp.Options, onReady, onFail func()) *simtcp.Conn {
	cl, sv := simtcp.ConnectOn(e.S, toServer, toClient, opts, opts)
	handshakeRTT := toServer.Delay + toClient.Delay
	ready := false
	if onFail != nil {
		cl.OnReset = onFail
	}
	cl.OnEstablished = func() {
		e.S.After(handshakeRTT, func() {
			if ready || cl.Failed() || sv.Failed() {
				return
			}
			ready = true
			if c == nil {
				c = e.D.Add(connID, "")
			}
			e.start(c, cl)
			e.peer.start(e.peer.D.Add(c.ID, ""), sv)
			if onReady != nil {
				onReady()
			}
		})
	}
	return cl
}

// start wires tc as c's transport and puts the connection to work.
func (e *Endpoint) start(c *driver.Conn, tc *simtcp.Conn) {
	t := &conn{e: e, c: c, tc: tc}
	tc.OnRecv = func(p []byte) {
		// Input on a connection the engine declared failed dies here, as
		// it does at a real socket: records lost with a failed connection
		// are attributable, records on live connections always arrive.
		if err := e.D.Receive(c, p); err != nil {
			panic("simtcpls: engine receive: " + err.Error())
		}
	}
	tc.OnReset = func() { e.D.Down(c, false) }
	tc.OnAcked = e.D.Flush
	e.D.Start(c, t, nil, false)
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
// c.Deadline is reset.
func (h *host) Dial(c *driver.Conn) {
	e := (*Endpoint)(h)
	i, _ := strconv.Atoi(c.Addr)
	p := e.Paths[i]
	done := false
	cl := e.connect(p.AtoB, p.BtoA, c.ID, c, simtcp.Options{}, func() {
		done = true
		if e.OnJoined != nil {
			e.OnJoined(c.ID)
		}
	}, func() {
		if !done {
			done = true
			e.D.Abort(c, false, errors.New("simtcpls: join failed"))
		}
	})
	if !c.Deadline.IsZero() {
		e.S.After(c.Deadline.Sub(epoch.Add(e.S.Now())), func() {
			if !done {
				cl.Reset()
			}
		})
	}
}

func (h *host) FlushError(err error) { panic("simtcpls: flush: " + err.Error()) }

func (h *host) End(error) {}

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
