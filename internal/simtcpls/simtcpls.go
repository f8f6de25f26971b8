// Package simtcpls runs the real TCPLS protocol engine (internal/core) —
// actual record encryption, trial decryption, acknowledgments, SYNC
// resynchronization, coupled-stream reordering — over the simulated TCP
// stack. This is the configuration behind the paper's Mininet
// experiments (Figs. 8–13): protocol behaviour is the genuine article,
// only the network and kernel TCP underneath are modeled.
package simtcpls

import (
	"sort"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/handshake"
	"tcpls/internal/record"
	"tcpls/internal/sim"
	"tcpls/internal/simtcp"
)

// epoch anchors simulated time onto the wall-clock type the engine uses.
var epoch = time.Unix(0, 0)

// simNow converts simulator time to engine time.
func simNow(s *sim.Sim) time.Time { return epoch.Add(s.Now()) }

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

// Endpoint is one side of a simulated TCPLS session.
type Endpoint struct {
	S     *sim.Sim
	Sess  *core.Session
	peer  *Endpoint
	conns map[uint32]*simtcp.Conn

	// OnEvent observes engine events after the endpoint's own handling.
	OnEvent func(ev core.Event)
}

// Pair creates a connected client/server endpoint pair with no paths;
// attach paths with AddPath.
func Pair(s *sim.Sim, cfg core.Config) (client, server *Endpoint) {
	sec := testSecrets()
	client = &Endpoint{S: s, Sess: core.NewSession(core.RoleClient, sec, cfg), conns: map[uint32]*simtcp.Conn{}}
	server = &Endpoint{S: s, Sess: core.NewSession(core.RoleServer, sec, cfg), conns: map[uint32]*simtcp.Conn{}}
	client.peer = server
	server.peer = client
	if cfg.UserTimeout > 0 {
		tick := cfg.UserTimeout / 4
		var clientTick, serverTick func()
		clientTick = func() {
			client.Sess.Advance(simNow(s))
			client.pumpEvents()
			client.flush()
			s.After(tick, clientTick)
		}
		serverTick = func() {
			server.Sess.Advance(simNow(s))
			server.pumpEvents()
			server.flush()
			s.After(tick, serverTick)
		}
		s.After(tick, clientTick)
		s.After(tick, serverTick)
	}
	return client, server
}

// AddPath establishes a TCP connection over path and registers it with
// both engines under connID. The initial connection (connID 0) pays the
// TCP handshake plus one RTT of TLS handshake; joined connections pay
// the TCP handshake plus one RTT for the TCPLS JOIN exchange (Fig. 3).
// onReady, if non-nil, fires when the connection is usable.
func (e *Endpoint) AddPath(path *sim.Path, connID uint32, opts simtcp.Options, onReady func()) {
	e.TryPath(path, connID, opts, onReady, nil)
}

// TryPath is AddPath with a failure callback: connecting over a dead
// path retries its SYN with backoff and eventually reports failure —
// the cost structure of Fig. 9's path hunting.
func (e *Endpoint) TryPath(path *sim.Path, connID uint32, opts simtcp.Options, onReady, onFail func()) {
	cl, sv := simtcp.Connect(e.S, path, opts, opts)
	handshakeRTT := path.RTT() // TLS or JOIN round trip on top of TCP's

	ready := false
	if onFail != nil {
		cl.OnReset = func() { onFail() }
	}
	activate := func() {
		if ready || cl.Failed() || sv.Failed() {
			return
		}
		ready = true
		e.conns[connID] = cl
		e.peer.conns[connID] = sv
		e.Sess.AddConnection(connID, simNow(e.S))
		e.peer.Sess.AddConnection(connID, simNow(e.S))
		e.wire(cl, connID, e)
		e.wire(sv, connID, e.peer)
		e.joined()
		if onReady != nil {
			onReady()
		}
	}
	cl.OnEstablished = func() {
		e.S.After(handshakeRTT, activate)
	}
}

// joined runs both engines' failover policy once a connection is up: a
// connection can fail before any replacement exists (the Fig. 8
// blackhole), and the join that arrives later resumes what is parked.
func (e *Endpoint) joined() {
	e.pumpEvents()
	e.peer.pumpEvents()
	e.flush()
	e.peer.flush()
}

// AddPathOn is AddPath over explicit (possibly shared) links — the
// shared-bottleneck topology of Fig. 12.
func (e *Endpoint) AddPathOn(toServer, toClient *sim.Link, connID uint32, opts simtcp.Options, onReady func()) {
	cl, sv := simtcp.ConnectOn(e.S, toServer, toClient, opts, opts)
	handshakeRTT := toServer.Delay + toClient.Delay
	ready := false
	activate := func() {
		if ready || cl.Failed() || sv.Failed() {
			return
		}
		ready = true
		e.conns[connID] = cl
		e.peer.conns[connID] = sv
		e.Sess.AddConnection(connID, simNow(e.S))
		e.peer.Sess.AddConnection(connID, simNow(e.S))
		e.wire(cl, connID, e)
		e.wire(sv, connID, e.peer)
		e.joined()
		if onReady != nil {
			onReady()
		}
	}
	cl.OnEstablished = func() {
		e.S.After(handshakeRTT, activate)
	}
}

// wire connects a simtcp connection's receive path into an engine.
func (e *Endpoint) wire(c *simtcp.Conn, connID uint32, owner *Endpoint) {
	c.OnRecv = func(p []byte) {
		if owner.Sess.ConnFailed(connID) {
			// The real I/O wrapper parks its readLoop once the engine
			// declares a connection failed; late bytes (a stall lifting
			// after the user timeout fired) die at the socket. Mirroring
			// that here keeps count-closure exact: records lost with a
			// failed connection are attributable, records on live
			// connections always arrive.
			return
		}
		if err := owner.Sess.Receive(connID, p, simNow(owner.S)); err != nil {
			panic("simtcpls: engine receive: " + err.Error())
		}
		owner.pumpEvents()
		owner.flush()
	}
	c.OnReset = func() {
		owner.Sess.ReportConnFailed(connID)
		owner.pumpEvents()
		owner.flush()
	}
	c.OnAcked = func() {
		owner.flush()
	}
}

// flush frames engine output onto the TCP connections, in ascending
// conn-ID order: map-order iteration here would reshuffle the packet
// schedule between runs and break seed-reproducible fleet campaigns.
func (e *Endpoint) flush() {
	if err := e.Sess.Flush(); err != nil && err != core.ErrNotCoupled {
		panic("simtcpls: flush: " + err.Error())
	}
	ids := make([]uint32, 0, len(e.conns))
	for id := range e.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c := e.conns[id]
		out, err := e.Sess.Outgoing(id)
		if err != nil || len(out) == 0 {
			continue
		}
		if !c.Failed() && !e.Sess.ConnFailed(id) {
			c.Write(out) // copies; a failed connection's bytes drop with it
		}
		e.Sess.RecycleOutgoing(out)
	}
}

// pumpEvents runs the engine's failover policy and forwards the events;
// every caller flushes after it.
func (e *Endpoint) pumpEvents() {
	e.Sess.Failover()
	for _, ev := range e.Sess.Events() {
		if e.OnEvent != nil {
			e.OnEvent(ev)
		}
	}
}

// Conn exposes the underlying simulated TCP connection (for tcp_info-
// style statistics, CC swaps, and fault injection in experiments).
func (e *Endpoint) Conn(connID uint32) *simtcp.Conn { return e.conns[connID] }

// Flush transmits any queued engine output (exported for experiment
// drivers that interact with the Session directly).
func (e *Endpoint) Flush() { e.flush() }

// Write queues stream data and transmits.
func (e *Endpoint) Write(streamID uint32, p []byte) error {
	if _, err := e.Sess.Write(streamID, p); err != nil {
		return err
	}
	e.flush()
	return nil
}

// WriteCoupled queues coupled-group data and transmits.
func (e *Endpoint) WriteCoupled(p []byte) error {
	if _, err := e.Sess.WriteCoupled(p); err != nil {
		return err
	}
	e.flush()
	return nil
}
