package tcpls

import (
	"context"
	"errors"
	"net"
	"sync"

	"tcpls/internal/core"
	"tcpls/internal/driver"
	"tcpls/internal/handshake"
	"tcpls/internal/health"
	"tcpls/internal/record"
	"tcpls/internal/sched"
	"tcpls/internal/telemetry"
)

// Session is one TCPLS session: one or more TCP connections carrying
// multiplexed encrypted streams. All methods are safe for concurrent use.
//
// The engine is driven by internal/driver under s.mu: every input, flush
// and connection change goes through s.drv, which calls back into the
// session (host, below) and into each connection's pathConn (conn.go).
type Session struct {
	mu sync.Mutex
	// Each kind of waiter sleeps on a condition of its own, so that a
	// hand-off wakes the one goroutine it is for (DESIGN.md §16).
	//   cond: readers, event, join and BPF waiters, Close — broadcast on
	//     every input to the engine and on lifecycle events;
	//   accept: AcceptStream, on a peer's new stream;
	//   sendRoom: Write / WriteCoupled held back by a full output queue
	//     (awaitSendRoomLocked), on every pull;
	//   recvRoom: readLoops parked at RecvPaused, on every Read.
	// wakeAllLocked broadcasts them all.
	cond, accept, sendRoom, recvRoom *sync.Cond

	// owning: the goroutine holding s.mu is in flushOwnLocked; owned is
	// the connection whose turn at the pull Wake gave it.
	owning bool
	owned  *pathConn

	engine *core.Session
	drv    *driver.Driver
	cfg    *Config

	isClient  bool
	sessID    SessID
	peerAddrs []net.Addr

	streams  map[uint32]*Stream
	acceptQ  []*Stream
	tcpOpts  []TCPOption
	bpfProgs [][]byte
	echoCh   map[uint64]chan struct{}

	// closed: Close ran or the session ended; the API refuses new work.
	// The driver may still be draining (drv.Ended tells).
	closed             bool
	closeErr           error
	doneCh             chan struct{} // closed when the session ends
	doneHook           func()        // run once, under s.mu, as doneCh closes; must not call back in
	onNewServerCookies func([]Cookie)

	// Recovery state (reconnect.go): remembered redial targets and the
	// lifecycle event queue.
	dialNetwork string
	remoteAddrs []string
	sessEvents  []SessionEvent

	// Resumption state (§4.5).
	suite      *record.Suite
	resumption []byte
	ticket     *ClientTicket
	sealTicket func(psk []byte) ([]byte, error)
	// maxEarlyAdvert is the 0-RTT budget advertised in tickets this
	// session issues (server side; matches what the listener enforces).
	maxEarlyAdvert uint32
	// resumed records whether this session's handshake used a PSK ticket.
	resumed bool
	// 0-RTT state: whether this session's early-data offer was accepted
	// and, when a stream carries (client) or carried (server) the early
	// bytes, its ID.
	earlyAccepted  bool
	earlyStreamID  uint32
	hasEarlyStream bool

	// metrics is the path-metrics store the protocol engine feeds from
	// record acknowledgments.
	metrics *sched.Metrics

	// Telemetry state (telemetry.go): the session's entry in the shared
	// registry, the address whose HTTP endpoint this session holds a
	// reference on, the buffered qlog trace sink installed by TraceJSON,
	// and the events and drops of the sinks it displaced.
	entry                     *telemetry.SessionMetrics
	telAddr                   string
	traceSink                 *telemetry.Sink
	traceEvents, traceDropped uint64

	// Diagnosis state (trace.go): the always-on flight recorder and
	// this session's /debug/tcpls registry key. All tracer installs go
	// through refreshTracerLocked.
	flight   *telemetry.Flight
	debugKey string

	// Continuous self-diagnosis (health.go): the session's monitor and
	// the shared engine it is registered on under debugKey.
	healthMon *health.Monitor
	healthEng *health.Engine
}

// Session errors.
var (
	ErrSessionClosed = errors.New("tcpls: session closed")
	ErrNoCookies     = driver.ErrNoCookies
	ErrNotTCPLS      = errors.New("tcpls: peer did not negotiate TCPLS")
	// ErrRecvBufferFull: a receive buffer reached twice its
	// Config.MaxRecvBufferBytes cap (only possible when the session's
	// own backpressure is bypassed, e.g. by a peer feeding a paused
	// connection through another path).
	ErrRecvBufferFull = core.ErrRecvBufferFull
)

// newSession builds the session around its first connection. earlyStream
// (client side) opens the stream that carries Config.EarlyData before any
// byte of the server reaches the engine: the reply to an accepted 0-RTT
// flight may already sit in leftover, and without the stream's context it
// would be dropped as a failed decrypt.
func newSession(isClient bool, cfg *Config, res *handshake.Result, nc net.Conn, leftover []byte, earlyStream bool) *Session {
	role := core.RoleServer
	if isClient {
		role = core.RoleClient
	}
	s := &Session{
		engine:   core.NewSession(role, res.Secrets, cfg.coreConfig()),
		cfg:      cfg,
		isClient: isClient,
		sessID:   res.SessID,
		streams:  make(map[uint32]*Stream),
		echoCh:   make(map[uint64]chan struct{}),
		doneCh:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.accept = sync.NewCond(&s.mu)
	s.sendRoom = sync.NewCond(&s.mu)
	s.recvRoom = sync.NewCond(&s.mu)
	s.suite = res.Secrets.Suite
	s.resumption = res.Secrets.Resumption
	s.resumed = res.Resumed
	s.metrics = sched.NewMetrics()
	s.engine.SetMetrics(s.metrics)
	s.drv = driver.New(s.engine, driver.Config{
		Client:      isClient,
		Failover:    cfg.EnableFailover && !cfg.DisableTCPLS,
		UserTimeout: cfg.UserTimeout,
		Reconnect:   &cfg.Reconnect,
	}, wallClock{s}, (*host)(s), 1)
	for _, c := range res.Cookies {
		s.drv.Cookies = append(s.drv.Cookies, c)
	}
	s.initTelemetry()
	for _, a := range res.PeerAddrs {
		s.peerAddrs = append(s.peerAddrs, &net.TCPAddr{IP: a.AsSlice()})
	}
	s.mu.Lock() // initTelemetry published the session: scrapes may already read the engine
	// The connection's loops start once the early stream exists and the
	// leftover is in: the leftover precedes whatever they would read.
	c := s.drv.Add(0, "")
	pc := s.newPathConn(c, nc)
	s.drv.Start(c, pc, nil, false)
	if isClient {
		if ra := nc.RemoteAddr(); ra != nil {
			s.dialNetwork = ra.Network()
			s.rememberAddrLocked(ra.String())
		}
		s.earlyAccepted = res.EarlyDataAccepted
	}
	if earlyStream {
		// The first client stream gets the same ID (2) the server's
		// injection used, so on acceptance the bytes are already home and
		// only the STREAM_ATTACH goes out.
		if id, err := s.engine.CreateStream(0); err == nil {
			s.streams[id] = &Stream{sess: s, id: id}
			s.earlyStreamID = id
			s.hasEarlyStream = true
		}
	}
	if !isClient && res.EarlyDataAccepted {
		// Deliver the accepted 0-RTT flight before any leftover engine
		// records: the early bytes are, by definition, the first thing
		// the client sent, and the leftover may already carry the
		// STREAM_ATTACH re-homing the same stream.
		if id, err := s.engine.InjectEarlyData(res.EarlyData); err == nil {
			s.earlyAccepted = true
			s.earlyStreamID = id
			s.hasEarlyStream = true
		}
	}
	if len(leftover) == 0 {
		s.drv.Step()
	} else if err := s.drv.Receive(c, leftover); err != nil {
		s.drv.Fail(err)
	}
	pc.run()
	if cfg.Scheduler != "" {
		// Validated by Dial/Client/Listen; ByName cannot fail here.
		if ps, ok := sched.ByName(cfg.Scheduler); ok {
			s.engine.SetPathScheduler(ps)
		}
	}
	s.mu.Unlock()
	return s
}

// writeBatchMax bounds how many queued chunks one vectored write gathers.
// It matches Linux's UIO_FASTIOV (the iovec count writev handles without
// an extra kernel allocation).
const writeBatchMax = 16

// sendQueueBytes is how many bytes may wait in the engine for one
// connection, sealed or parked at the send window, before Write and
// WriteCoupled hold back — or one write of
// the caller's own size, when that is more — the send-side backpressure
// that paces application writes, and through them the scheduler, to each
// path's real rate. The queue a sender keeps filled is then as deep as
// its own writes: the writer has work while the sender seals the next
// one (1 MiB blocks held to 64 KiB lost 6 % on two coupled paths), and a
// small-record sender cannot hoard more than this on a slow path beyond
// its socket buffer (8 KiB writes allowed 1 MiB taught a rate-aware
// scheduler nothing over a 20 + 2 Mbps pair: 3.9 Mbps, 9.8 at 64 KiB).
// It also bounds what one pull can gather, so a writer needs no byte cap
// of its own: many small ack/control chunks still leave in one syscall.
const sendQueueBytes = 64 << 10

// awaitSendRoomLocked holds back a sender of n bytes to stream id, or to
// the coupled group, while the engine's backlog where its own bytes would
// land is at that bound: sealed bytes queued on the connection, and bytes
// parked behind a full send window. False when the session closed
// meanwhile.
func (s *Session) awaitSendRoomLocked(id uint32, coupled bool, n int) bool {
	for limit := max(sendQueueBytes, n); !s.closed && s.engine.Backlog(id, coupled) >= limit; {
		s.sendRoom.Wait()
	}
	return !s.closed
}

// host is the session as the driver sees it: the API state the engine's
// events feed, the lifecycle events, the redial dialer and the end.
type host Session

// Event turns one engine event into API state; the driver has already
// kept its books (connection states, cookies, failover shutdowns).
func (h *host) Event(ev core.Event) {
	s := (*Session)(h)
	switch ev.Kind {
	case core.EventStreamOpen:
		st := &Stream{sess: s, id: ev.Stream}
		s.streams[ev.Stream] = st
		s.acceptQ = append(s.acceptQ, st)
		s.accept.Broadcast()
	case core.EventTCPOption:
		s.tcpOpts = append(s.tcpOpts, TCPOption{Conn: ev.Conn, Kind: ev.OptKind, Value: ev.OptVal})
	case core.EventBPFCC:
		s.bpfProgs = append(s.bpfProgs, ev.Data)
	case core.EventEchoReply:
		if ch, ok := s.echoCh[ev.Token]; ok {
			close(ch)
			delete(s.echoCh, ev.Token)
		}
	case core.EventSessionTicket:
		s.engine.Note("ticket_received", ev.Conn, 0, 0, len(ev.Data))
		if len(s.resumption) > 0 {
			s.ticket = &ClientTicket{
				ServerName:   s.cfg.ServerName,
				Ticket:       ev.Data,
				PSK:          derivePSK(s.suite, s.resumption, ev.Nonce),
				MaxEarlyData: ev.MaxEarly,
			}
		}
	case core.EventAddAddr:
		s.peerAddrs = append(s.peerAddrs, &net.TCPAddr{IP: ev.Addr})
	}
}

// FlushError records an engine refusal to frame queued data.
func (h *host) FlushError(err error) { h.closeErr = err }

// End tears the session down once the driver is done with it: the
// listener forgets it, its telemetry is given back, and every waiter
// wakes. The driver has shut the connections; a drained one closes at
// the peer's end of stream.
func (h *host) End(err error) {
	s := (*Session)(h)
	s.closed = true
	if err != nil {
		s.closeErr = err
		// Postmortem: a session dying with an error (SessionDeadError,
		// protocol failure) dumps its flight recorder automatically when
		// a destination is configured. Off the lock path — the ring has
		// its own lock and the writer may be slow.
		if s.flight != nil && s.cfg.Telemetry.FlightDump != nil {
			go s.flight.Dump(s.cfg.Telemetry.FlightDump)
		}
	}
	close(s.doneCh)
	if s.doneHook != nil {
		s.doneHook()
	}
	s.closeTelemetryLocked()
	// No failover replay can happen after this: return the pooled
	// retransmit payloads.
	s.engine.ReleaseBuffers()
	s.wakeAllLocked()
}

// ID returns the server-assigned TCPLS session identifier.
func (s *Session) ID() SessID { return s.sessID }

// Resumed reports whether this session's handshake was abbreviated by a
// PSK resumption ticket (client: the server accepted the offered ticket;
// server: the ticket opened). False for full handshakes.
func (s *Session) Resumed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumed
}

// EarlyDataAccepted reports whether this session's 0-RTT offer was
// accepted: on the client, the server's echo; on the server, that the
// early flight was delivered. False also when no early data was offered.
func (s *Session) EarlyDataAccepted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.earlyAccepted
}

// EarlyStream returns the stream carrying the 0-RTT bytes: on the
// client, the stream Dial/Client opened for Config.EarlyData (whether it
// went out at 0-RTT or fell back to 1-RTT); on the server, the injected
// first client stream (also delivered through AcceptStream). ok is false
// when no early data was configured.
func (s *Session) EarlyStream() (*Stream, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasEarlyStream {
		return nil, false
	}
	st, ok := s.streams[s.earlyStreamID]
	return st, ok
}

// Cookies returns the remaining join-cookie budget (client side).
func (s *Session) Cookies() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.drv.Cookies)
}

// Connections returns the engine IDs of live connections.
func (s *Session) Connections() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Connections()
}

// Failover explicitly moves the streams of failedConn onto targetConn.
func (s *Session) Failover(failedConn, targetConn uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.engine.FailoverTo(failedConn, targetConn)
	s.drv.Step()
	return err
}

// waitLocked blocks on cond, one of the session's conditions, honouring
// ctx. The caller holds s.mu. A context that can never end costs nothing;
// another's end wakes cond's waiters under the lock, so after Wait parked.
func (s *Session) waitLocked(ctx context.Context, cond *sync.Cond) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	cond.Wait()
	return ctx.Err()
}

// wakeInputLocked follows an input to the engine: readers and the other
// waiters on cond, and readLoops parked at RecvPaused, whose connection
// the input may have failed. Broadcasting a condition nobody waits on
// costs an atomic load.
func (s *Session) wakeInputLocked() {
	s.cond.Broadcast()
	s.recvRoom.Broadcast()
}

// flushOwnLocked flushes what the caller has just queued (Write,
// WriteCoupled, Stream.Close). When Wake finds a connection's writer idle
// and at most sendQueueBytes queued for it, the caller writes that batch
// itself, as crypto/tls does: a small record leaves without waking
// anyone. A larger batch stays with the writer, whose writev then
// overlaps the caller sealing its next block.
func (s *Session) flushOwnLocked() {
	s.owning = true
	s.drv.Flush()
	s.owning = false
	if pc := s.owned; pc != nil {
		s.owned = nil
		pc.writeBatchLocked()
		pc.releaseLocked()
	}
}

// wakeAllLocked rouses everything that waits on session state: readers
// and event waiters, acceptors, held-back senders, parked readLoops, and
// every connection's writer.
func (s *Session) wakeAllLocked() {
	s.wakeInputLocked()
	s.accept.Broadcast()
	s.sendRoom.Broadcast()
	for _, c := range s.drv.Conns() {
		if pc, ok := c.T.(*pathConn); ok {
			pc.writable.Signal()
		}
	}
}

// Close shuts the session down in order: each connection's writer puts
// what the engine still holds for it on the socket, then a goodbye, and
// half-closes. Close returns once the goodbyes are out (at most
// driver.DrainTimeout). The session stays joinable until every
// connection has ended, so a client can still join a draining session;
// Done closes then.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.closeTelemetryLocked()
	s.drv.Drain(driver.DrainTimeout)
	s.wakeAllLocked()
	for !s.drv.Quiet() {
		s.cond.Wait()
	}
	return nil
}

// Stats returns engine counters.
func (s *Session) Stats() core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Stats()
}

// Done returns a channel closed once the session has ended — by Close
// and its drain, by the peer's orderly goodbye, or by a terminal
// failure. Err reports which, after Done is closed. The server runtime's
// drain sequence waits on this.
func (s *Session) Done() <-chan struct{} { return s.doneCh }

// Err returns the session's terminal error: nil while the session is
// live or after an orderly close, or the failure (e.g. a
// *SessionDeadError) that killed it.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// MemoryFootprint reports the session's current buffered memory in
// bytes: the reorder heap, retransmit buffers, stream receive buffers,
// and unsent pending data. The send window and the receive caps bound
// it per session; the server runtime (internal/server) rolls it up
// across the registry into the process-wide memory budget.
func (s *Session) MemoryFootprint() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.BufferedBytes()
}
