package tcpls

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/handshake"
	"tcpls/internal/health"
	"tcpls/internal/record"
	"tcpls/internal/sched"
	"tcpls/internal/telemetry"
)

// Session is one TCPLS session: one or more TCP connections carrying
// multiplexed encrypted streams. All methods are safe for concurrent use.
type Session struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast on readable data / events / close
	// sendRoom wakes Write / WriteCoupled callers held back by a full
	// output queue (awaitSendRoomLocked). Its own cond, so that a writer
	// pulling its chunks does not rouse every reader on cond.
	sendRoom *sync.Cond
	engine   *core.Session
	cfg      *Config

	isClient  bool
	sessID    SessID
	cookies   []Cookie
	peerAddrs []net.Addr

	conns      map[uint32]*pathConn
	nextConnID uint32

	streams  map[uint32]*Stream
	acceptQ  []*Stream
	tcpOpts  []TCPOption
	bpfProgs [][]byte
	echoCh   map[uint64]chan struct{}
	engineEv []core.Event // processEventsLocked's drain buffer, kept across calls

	closed             bool
	closeErr           error
	doneCh             chan struct{} // closed when the session closes
	doneHook           func()        // run once, under s.mu, as doneCh closes; must not call back in
	onNewServerCookies func([]Cookie)

	// Recovery supervisor state (reconnect.go): remembered redial
	// targets and the lifecycle event queue.
	dialNetwork string
	remoteAddrs []string
	recovering  bool
	sessEvents  []SessionEvent
	eventCh     chan SessionEvent

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
	wg             sync.WaitGroup
	timerStop      chan struct{}

	// metrics is the path-metrics engine shared with the protocol
	// engine; metricsLoopOn guards the kernel TCP_INFO refresher.
	metrics       *sched.Metrics
	metricsLoopOn bool

	// Telemetry state (telemetry.go): the session's metric handles on
	// the shared registry, the address whose HTTP endpoint this session
	// holds a reference on, and the buffered qlog trace sink installed
	// by TraceJSON.
	tel       *telemetry.SessionMetrics
	telAddr   string
	traceSink *telemetry.Sink

	// Diagnosis state (trace.go): the always-on flight recorder, the
	// user's Trace callback, and this session's /debug/tcpls registry
	// key. All tracer installs go through refreshTracerLocked.
	flight   *telemetry.Flight
	traceFn  func(core.TraceEvent)
	debugKey string

	// Continuous self-diagnosis (health.go): the session's monitor and
	// the shared engine it is registered on under debugKey.
	healthMon *health.Monitor
	healthEng *health.Engine
}

// TCPOption is an encrypted TCP option received from the peer (§3.1).
type TCPOption struct {
	Conn  uint32
	Kind  uint8
	Value []byte
}

// OptUserTimeout is the TCP User Timeout option kind (RFC 5482).
const OptUserTimeout = core.OptUserTimeout

// Session errors.
var (
	ErrSessionClosed = errors.New("tcpls: session closed")
	ErrNoCookies     = errors.New("tcpls: no join cookies left")
	ErrNotTCPLS      = errors.New("tcpls: peer did not negotiate TCPLS")
	// ErrRecvBufferFull: a receive buffer reached twice its
	// Config.MaxRecvBufferBytes cap (only possible when the session's
	// own backpressure is bypassed, e.g. by a peer feeding a paused
	// connection through another path).
	ErrRecvBufferFull = core.ErrRecvBufferFull
	// ErrRetransmitBudget: Write would queue more than a full extra
	// Config.MaxRetransmitBytes behind a stream parked at its
	// retransmit budget.
	ErrRetransmitBudget = core.ErrRetransmitBudget
)

// pathConn binds a TCP connection to its engine connection ID. Each
// connection has its own writer goroutine so multipath sessions push
// bytes onto all paths concurrently — serializing socket writes would
// cap aggregation at a single path's rate.
type pathConn struct {
	id uint32
	nc net.Conn
	// writable wakes the conn's writer (writeLoop): signalled under s.mu
	// by whoever leaves output for this conn in the engine, and by close.
	writable *sync.Cond
	// drained is closed by the writer as it exits: the session has closed,
	// the engine holds nothing more for this conn and the last writev has
	// returned. Close waits on it before the socket shuts, so a record
	// still on its way into a backpressured socket is never cut off and
	// the receiver's reorder heap is not left with a permanent gap.
	drained chan struct{}
	// failed flips once, possibly from a reader or writer goroutine
	// while others look at it outside the session lock.
	failed atomic.Bool
	// peerClosed marks a graceful CONN_CLOSE from the peer (under s.mu):
	// the later TCP EOF on this conn is an orderly goodbye, not an outage.
	peerClosed bool
}

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
		engine:     core.NewSession(role, res.Secrets, cfg.coreConfig()),
		cfg:        cfg,
		isClient:   isClient,
		sessID:     res.SessID,
		cookies:    res.Cookies,
		conns:      make(map[uint32]*pathConn),
		streams:    make(map[uint32]*Stream),
		echoCh:     make(map[uint64]chan struct{}),
		nextConnID: 1,
		timerStop:  make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.sendRoom = sync.NewCond(&s.mu)
	s.suite = res.Secrets.Suite
	s.resumption = res.Secrets.Resumption
	s.resumed = res.Resumed
	s.metrics = sched.NewMetrics()
	s.engine.SetMetrics(s.metrics)
	s.initTelemetry()
	for _, a := range res.PeerAddrs {
		s.peerAddrs = append(s.peerAddrs, &net.TCPAddr{IP: a.AsSlice()})
	}
	s.mu.Lock() // initTelemetry published the session: scrapes may already read the engine
	s.engine.AddConnection(0, time.Now())
	if isClient {
		if ra := nc.RemoteAddr(); ra != nil {
			s.dialNetwork = ra.Network()
			s.rememberAddrLocked(ra.String())
		}
	}
	s.addConnLocked(0, nc)
	if isClient {
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
			s.processEventsLocked()
		}
	}
	if len(leftover) > 0 {
		s.engine.Receive(0, leftover, time.Now())
		s.processEventsLocked()
	}
	s.flushLocked()
	if cfg.Scheduler != "" {
		// Validated by Dial/Client/Listen; ByName cannot fail here.
		if ps, ok := sched.ByName(cfg.Scheduler); ok {
			s.engine.SetPathScheduler(ps)
			s.startPathMetricsLoopLocked()
		}
	}
	s.mu.Unlock()
	if cfg.UserTimeout > 0 {
		s.wg.Add(1)
		go s.timerLoop()
	}
	if cfg.OnEvent != nil {
		s.eventCh = make(chan SessionEvent, sessionEventCap)
		s.wg.Add(1)
		go s.eventLoop()
	}
	return s
}

// addConnLocked registers nc under id and starts its reader and writer.
func (s *Session) addConnLocked(id uint32, nc net.Conn) *pathConn {
	pc := &pathConn{id: id, nc: nc, writable: sync.NewCond(&s.mu), drained: make(chan struct{})}
	s.conns[id] = pc
	s.wg.Add(2)
	go s.readLoop(pc)
	go s.writeLoop(pc)
	return pc
}

// startJoinedConnLocked starts the loops of a joined connection the engine
// already knows, hands the engine what the handshake transport read past
// the handshake's own messages, and lets the failover policy resume
// whatever is parked.
func (s *Session) startJoinedConnLocked(id uint32, nc net.Conn, leftover []byte) {
	s.addConnLocked(id, nc)
	s.engine.Note("join_accepted", id, 0, 0, 0)
	if len(leftover) > 0 {
		s.engine.Receive(id, leftover, time.Now())
	}
	s.processEventsLocked()
	s.flushLocked()
	s.cond.Broadcast()
}

// writeBatchMax bounds how many queued chunks one vectored write gathers.
// It matches Linux's UIO_FASTIOV (the iovec count writev handles without
// an extra kernel allocation).
const writeBatchMax = 16

// sendQueueBytes is how many sealed bytes may wait in the engine for one
// connection before Write and WriteCoupled hold back — or one write of
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

// awaitSendRoomLocked holds back a sender of n bytes to st — to the
// coupled group when st is nil — while the bytes queued where its own
// would land are at that bound. False when the session closed meanwhile.
func (s *Session) awaitSendRoomLocked(st *Stream, n int) bool {
	for limit := max(sendQueueBytes, n); !s.closed && s.sendBacklogLocked(st) >= limit; {
		s.sendRoom.Wait()
	}
	return !s.closed
}

// sendBacklogLocked is looked up on every turn: a failover moves streams.
func (s *Session) sendBacklogLocked(st *Stream) int {
	if st == nil {
		return s.engine.CoupledQueuedBytes()
	}
	conn, err := s.engine.StreamConn(st.id)
	if err != nil {
		return 0 // Write reports the unknown stream
	}
	return s.engine.QueuedBytes(conn)
}

// flushLocked frames what the engine has queued and wakes the writer of
// every connection that now has bytes to send. It never blocks: writers
// pull from the engine (writeLoop), nothing is pushed at them.
func (s *Session) flushLocked() {
	if err := s.engine.Flush(); err != nil && err != core.ErrNotCoupled {
		s.closeErr = err
	}
	for id, pc := range s.conns {
		if s.engine.HasOutgoing(id) {
			pc.writable.Signal()
		}
	}
}

// writeLoop is the only caller of NextChunk for its connection, so bytes
// reach the socket in the order the engine sealed them whoever flushed.
// Each round, under one hold of s.mu, it settles the batch it has just
// written and pulls the next; the vectored write (writev via net.Buffers)
// runs outside the lock. A failed connection's chunks are pulled all the
// same and dropped here, nowhere else. The loop ends once the session has
// closed and the engine is empty for this conn.
func (s *Session) writeLoop(pc *pathConn) {
	defer s.wg.Done()
	defer close(pc.drained)
	chunks := make([][]byte, 0, writeBatchMax)
	// net.Buffers.WriteTo consumes the slice it is called on (that is how
	// it tracks writev progress), so each write gets a fresh view of one
	// scratch array and chunks is kept for the accounting.
	scratch := make(net.Buffers, 0, writeBatchMax)
	var iov net.Buffers
	var written int64 // stays 0 on a conn already failed: its chunks settle as dropped
	var werr error
	var wroteAt time.Time
	for {
		s.mu.Lock()
		s.settleLocked(pc, chunks, written, werr, wroteAt)
		chunks = chunks[:0]
		for {
			for len(chunks) < writeBatchMax {
				data, err := s.engine.NextChunk(pc.id)
				if err != nil || len(data) == 0 {
					break
				}
				chunks = append(chunks, data)
			}
			if len(chunks) > 0 || s.closed {
				break
			}
			pc.writable.Wait()
		}
		s.mu.Unlock()
		if len(chunks) == 0 {
			return
		}
		s.sendRoom.Broadcast() // the pull emptied this conn's queue, or nearly
		written, werr = 0, nil
		if !pc.failed.Load() {
			iov = append(scratch[:0], chunks...)
			written, werr = iov.WriteTo(pc.nc)
		}
		wroteAt = time.Now()
	}
}

// settleLocked closes the books on the batch the writer has just pushed:
// per-chunk written/dropped stamps, the recycle, and on a write error the
// failed flag, ReportConnFailed and the resulting events — all inside the
// caller's ONE s.mu critical section, so no concurrent flush can observe
// the conn failed but the engine not yet told.
func (s *Session) settleLocked(pc *pathConn, chunks [][]byte, written int64, err error, now time.Time) {
	for _, c := range chunks {
		if written >= int64(len(c)) {
			// Fully flushed: stamp the socket-write leg of the records the
			// chunk carried (lifecycle spans), one batch per chunk, FIFO.
			written -= int64(len(c))
			s.engine.NoteWritten(pc.id, now)
		} else {
			// Partially written or never reached: the conn is dead either
			// way, so the records count as dropped and failover replays
			// them byte-identically on the new path.
			written = 0
			s.engine.NoteWriteDropped(pc.id)
		}
		s.engine.RecycleOutgoing(c) // handed out by the engine, counted against its pool
	}
	if err != nil {
		pc.failed.Store(true)
		if !s.closed { // else the sockets are shutting under a closed session: not an outage
			s.reportConnFailedLocked(pc.id)
		}
	}
}

// reportConnFailedLocked tells the engine a connection is gone and acts
// on what follows: the failover, and the flush that puts its replays on
// the target connection.
func (s *Session) reportConnFailedLocked(id uint32) {
	s.engine.ReportConnFailed(id)
	s.processEventsLocked()
	s.flushLocked()
	s.cond.Broadcast()
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
	return len(s.cookies)
}

// PeerAddrs returns the addresses the server advertised for joining.
func (s *Session) PeerAddrs() []net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]net.Addr(nil), s.peerAddrs...)
}

// Connections returns the engine IDs of live connections.
func (s *Session) Connections() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Connections()
}

// readBufLen sizes each connection's read buffer. 256 KiB holds a full
// batch of ~16 max-size TLS records, so one kernel read feeds the engine
// a writev-sized burst that is deframed in place.
const readBufLen = 256 << 10

// readBufs recycles read buffers: zeroing one per connection was 6 % of connect_churn.
var readBufs = sync.Pool{New: func() any { return new([readBufLen]byte) }}

// readLoop pumps bytes from one TCP connection into the engine.
func (s *Session) readLoop(pc *pathConn) {
	defer s.wg.Done()
	// The engine keeps no view into buf between Receive calls.
	arr := readBufs.Get().(*[readBufLen]byte)
	defer readBufs.Put(arr)
	buf := arr[:]
	for {
		n, err := pc.nc.Read(buf)
		s.mu.Lock()
		if n > 0 && !s.closed {
			rerr := s.engine.Receive(pc.id, buf[:n], time.Now())
			s.processEventsLocked()
			s.flushLocked()
			s.cond.Broadcast()
			// Receive-buffer backpressure: while the engine reports a
			// full buffer fed by this connection, park instead of
			// reading more — the kernel buffer fills, TCP's receive
			// window closes, and the peer stalls. Stream.Read drains the
			// buffer and broadcasts to resume.
			for rerr == nil && !s.closed && !pc.failed.Load() && s.engine.RecvPaused(pc.id) {
				s.cond.Wait()
			}
			if rerr != nil {
				s.failSessionLocked(rerr)
			}
		}
		if err != nil && !s.closed {
			// TCP-level failure or close: report to the engine.
			pc.failed.Store(true)
			s.reportConnFailedLocked(pc.id)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		// On a closed session the engine takes no more input: what still
		// arrives is read and dropped, until the peer's EOF (or the deadline
		// Close set) lets the socket close with nothing unread.
		if err != nil {
			pc.nc.Close()
			return
		}
	}
}

// timerLoop drives UserTimeout-based failure detection.
func (s *Session) timerLoop() {
	defer s.wg.Done()
	period := s.cfg.UserTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.timerStop:
			return
		case <-t.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.engine.Advance(time.Now())
			s.processEventsLocked()
			s.flushLocked()
			s.mu.Unlock()
		}
	}
}

// processEventsLocked runs the engine's failover policy (DESIGN.md §8)
// and turns the engine's events into API state.
func (s *Session) processEventsLocked() {
	s.engine.Failover()
	lost := false
	s.engineEv = s.engine.AppendEvents(s.engineEv[:0])
	for _, ev := range s.engineEv {
		switch ev.Kind {
		case core.EventStreamOpen:
			st := &Stream{sess: s, id: ev.Stream}
			s.streams[ev.Stream] = st
			s.acceptQ = append(s.acceptQ, st)
		case core.EventStreamData, core.EventCoupledData, core.EventStreamFin:
			// Readable state changed; cond broadcast happens at the
			// call sites.
		case core.EventConnFailed:
			if pc, ok := s.conns[ev.Conn]; ok {
				pc.failed.Store(true)
			}
			s.emitSessionEventLocked(SessionEvent{Kind: EventConnDown, Conn: ev.Conn})
			lost = true
		case core.EventFailoverDone:
			// The failed connections' streams live on ev.Conn now.
			for _, pc := range s.conns {
				if pc.failed.Load() {
					pc.nc.Close()
				}
			}
			s.emitSessionEventLocked(SessionEvent{Kind: EventFailover, Conn: ev.Conn})
		case core.EventNewCookies:
			for _, c := range ev.Cookies {
				s.cookies = append(s.cookies, Cookie(c))
			}
			s.engine.Note("cookie_received", ev.Conn, 0, 0, len(ev.Cookies))
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
		case core.EventConnClosed:
			if pc, ok := s.conns[ev.Conn]; ok {
				pc.peerClosed = true
			}
		case core.EventRemoveAddr:
			// informational
		}
	}
	if lost {
		// With no path left, the recovery supervisor takes over.
		s.maybeEnterRecoveryLocked()
	}
}

// Failover explicitly moves the streams of failedConn onto targetConn.
func (s *Session) Failover(failedConn, targetConn uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.engine.FailoverTo(failedConn, targetConn)
	s.flushLocked()
	return err
}

// SendTCPOption ships an encrypted TCP option to the peer.
func (s *Session) SendTCPOption(conn uint32, kind uint8, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.engine.SendTCPOption(conn, kind, value)
	s.flushLocked()
	return err
}

// TCPOptions drains received encrypted TCP options.
func (s *Session) TCPOptions() []TCPOption {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.tcpOpts
	s.tcpOpts = nil
	return opts
}

// SendBPFCC ships an eBPF congestion-controller program to the peer
// (§4.4). The receiver retrieves it with ReceiveBPFCC.
func (s *Session) SendBPFCC(conn uint32, program []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.engine.SendBPFCC(conn, program)
	s.flushLocked()
	return err
}

// ReceiveBPFCC blocks until a complete eBPF program arrives.
func (s *Session) ReceiveBPFCC(ctx context.Context) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.bpfProgs) == 0 && !s.closed {
		if err := s.waitLocked(ctx); err != nil {
			return nil, err
		}
	}
	if len(s.bpfProgs) == 0 {
		return nil, ErrSessionClosed
	}
	prog := s.bpfProgs[0]
	s.bpfProgs = s.bpfProgs[1:]
	return prog, nil
}

// Ping measures the round-trip time of one connection using an encrypted
// echo record (§3.3.3's active probing).
func (s *Session) Ping(conn uint32, timeout time.Duration) (time.Duration, error) {
	token := uint64(time.Now().UnixNano())
	ch := make(chan struct{})
	s.mu.Lock()
	s.echoCh[token] = ch
	err := s.engine.SendEcho(conn, token)
	s.flushLocked()
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	select {
	case <-ch:
		return time.Since(start), nil
	case <-time.After(timeout):
		s.mu.Lock()
		delete(s.echoCh, token)
		s.mu.Unlock()
		return 0, fmt.Errorf("tcpls: ping on conn %d timed out", conn)
	}
}

// waitLocked blocks on the session condition variable, honouring ctx.
// The caller holds s.mu. A context that can never end costs nothing;
// another's end wakes the waiters under the lock, so after Wait parked.
func (s *Session) waitLocked(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	s.cond.Wait()
	return ctx.Err()
}

// markDoneLocked closes doneCh and runs the listener's hook; callers
// have just set s.closed.
func (s *Session) markDoneLocked() {
	close(s.doneCh)
	if s.doneHook != nil {
		s.doneHook()
	}
}

// failSession tears the session down with an error.
func (s *Session) failSession(err error) {
	s.mu.Lock()
	s.failSessionLocked(err)
	s.mu.Unlock()
}

// wakeAllLocked rouses everything that waits on session state: readers
// and event waiters, held-back senders, and every connection's writer.
// The close paths call it once s.closed is set.
func (s *Session) wakeAllLocked() {
	s.cond.Broadcast()
	s.sendRoom.Broadcast()
	for _, pc := range s.conns {
		pc.writable.Signal()
	}
}

// failSessionLocked is failSession for callers already holding s.mu. A
// nil err closes the session as if by Close (blocked calls report
// ErrSessionClosed).
func (s *Session) failSessionLocked(err error) {
	if !s.closed {
		s.closed = true
		s.closeErr = err
		s.markDoneLocked()
		// Postmortem: a session dying with an error (SessionDeadError,
		// protocol failure) dumps its flight recorder automatically when
		// a destination is configured. Off the lock path — the ring has
		// its own lock and the writer may be slow.
		if err != nil && s.flight != nil && s.cfg.Telemetry.FlightDump != nil {
			go s.flight.Dump(s.cfg.Telemetry.FlightDump)
		}
		s.closeTelemetryLocked()
		close(s.timerStop)
		// The writers find their sockets shut, drop what the engine still
		// holds for them and exit.
		for _, pc := range s.conns {
			pc.nc.Close()
		}
		// No failover replay can happen after this: return the pooled
		// retransmit payloads.
		s.engine.ReleaseBuffers()
	}
	s.wakeAllLocked()
}

// Close shuts the session down: the close notification is queued behind
// whatever the engine still holds, each connection's writer drains its
// share onto the socket, and the TCP connections close.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.markDoneLocked()
	s.closeTelemetryLocked()
	conns := make([]*pathConn, 0, len(s.conns))
	for id, pc := range s.conns {
		s.engine.CloseConnection(id)
		conns = append(conns, pc)
	}
	s.flushLocked()
	s.wakeAllLocked()
	s.mu.Unlock()

	// Every writer reports when the engine is empty for its conn and its
	// last writev has returned, so queued records reach the kernel before
	// the sockets close (bounded: a dead peer cannot stall Close forever).
	deadline := time.Now().Add(10 * time.Second)
	expired := time.NewTimer(time.Until(deadline))
	defer expired.Stop()
	timedOut := false
	for _, pc := range conns {
		if !timedOut {
			select {
			case <-pc.drained:
			case <-expired.C:
				timedOut = true
			}
		}
		if timedOut || pc.failed.Load() || !lingeringClose(pc.nc, deadline) {
			pc.nc.Close()
		}
	}
	close(s.timerStop)
	// The writers have drained (or timed out); no failover replay can
	// happen on a closed session, so the pooled retransmit payloads held
	// for it go back to the arena.
	s.mu.Lock()
	s.engine.ReleaseBuffers()
	s.mu.Unlock()
	return nil
}

// lingeringClose ends nc's write side, so the peer reads the goodbye and
// then EOF, and leaves the socket to the connection's reader, which
// closes it at the peer's EOF or at deadline. Closing a socket that has
// unread bytes — and the peer's acks are always on their way — resets the
// connection, and the reset discards what the kernel has not sent yet,
// goodbye included. False when nc cannot half-close.
func lingeringClose(nc net.Conn, deadline time.Time) bool {
	hc, ok := nc.(interface{ CloseWrite() error })
	return ok && hc.CloseWrite() == nil && nc.SetReadDeadline(deadline) == nil
}

// Stats returns engine counters.
func (s *Session) Stats() core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Stats()
}

// Done returns a channel closed once the session has closed — by
// Close, by the peer's orderly goodbye, or by a terminal failure. Err
// reports which, after Done is closed. The server runtime's drain
// sequence waits on this.
func (s *Session) Done() <-chan struct{} { return s.doneCh }

// Err returns the session's terminal error: nil while the session is
// live or after an orderly close, or the failure (e.g. a
// *SessionDeadError) that killed it.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// RemoteAddr returns the peer address of the session's lowest-numbered
// connection, or nil when none remains — the address admission control
// and the server registry key per-IP state on.
func (s *Session) RemoteAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *pathConn
	for _, pc := range s.conns {
		if best == nil || pc.id < best.id {
			best = pc
		}
	}
	if best == nil {
		return nil
	}
	return best.nc.RemoteAddr()
}

// MemoryFootprint reports the session's current buffered memory in
// bytes: the reorder heap, retransmit buffers, stream receive buffers,
// and unsent pending data. The caps of PR 5 (Config.MaxReorderBytes,
// MaxRecvBufferBytes, MaxRetransmitBytes) bound it per session; the
// server runtime (internal/server) rolls it up across the registry
// into the process-wide memory budget.
func (s *Session) MemoryFootprint() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.BufferedBytes()
}
