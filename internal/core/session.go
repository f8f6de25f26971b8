package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"tcpls/internal/handshake"
	"tcpls/internal/record"
	"tcpls/internal/reorder"
	"tcpls/internal/sched"
	"tcpls/internal/telemetry"
)

// Role distinguishes the two endpoints of a session.
type Role int

// Session roles.
const (
	RoleClient Role = iota
	RoleServer
)

// Stream ID allocation. The ID space is split between client and server
// (paper §3.3.1); stream 0 is the handshake-derived context used for
// control records on the initial connection, and every joined connection
// gets its own control stream so control records never share a sequence
// space across connections.
const (
	// ctlStreamBase tags per-connection control streams: control stream
	// of connection k (k > 0) is ctlStreamBase | k.
	ctlStreamBase     uint32 = 0xc0000000
	firstClientStream uint32 = 2
	firstServerStream uint32 = 3
)

func ctlStreamID(connID uint32) uint32 {
	if connID == 0 {
		return 0
	}
	return ctlStreamBase | connID
}

// Config tunes a session.
type Config struct {
	// EnableFailover turns on record-level acknowledgments and
	// retransmission buffering (§4.2). Costs a few percent of raw
	// throughput (Fig. 7).
	EnableFailover bool
	// AckPeriod acknowledges every n received stream records
	// (default 16, the paper's default policy).
	AckPeriod int
	// AckBytes acknowledges after this many received bytes since the
	// last ack regardless of record count (default 256 KiB).
	AckBytes int
	// MaxRecordPayload bounds stream bytes per record. Default fills the
	// 16384-byte TLS record; Fig. 13 uses ~1400 to smooth aggregation.
	MaxRecordPayload int
	// UserTimeout is the encrypted TCP User Timeout option value: a
	// connection with no inbound traffic for this long while data is
	// outstanding is declared failed (§4.2). Zero disables the timer.
	UserTimeout time.Duration

	// MaxReorderBytes and MaxReorderRecords are the receiver's limit on
	// the coupled reorder heap (§4.3), which an honest sender's window
	// keeps it below: with failover, a heap past either fails the session
	// with ErrReorderLimit. 0 means the default (16 MiB, 8192 records);
	// negative disables it.
	MaxReorderBytes   int
	MaxReorderRecords int
	// MaxRecvBufferBytes caps each stream's (and the coupled group's)
	// receive buffer when no Deliver callback drains it. At the cap the
	// engine reports backpressure via RecvPaused so the I/O wrapper
	// stops reading the socket (TCP's own receive window then pushes
	// back on the peer); at twice the cap — only reachable by callers
	// that ignore the backpressure signal — Receive returns a typed
	// ErrRecvBufferFull instead of growing without bound. 0 means the
	// default (16 MiB); negative disables the cap.
	MaxRecvBufferBytes int
	// MaxRetransmitBytes is the send window with failover: the most a
	// sender keeps between its oldest unacknowledged record and its
	// newest, per plain stream and across the coupled group in
	// aggregation order (charge). At half the window the engine solicits
	// an ACK; at the window sealing parks and Backlog holds the writer.
	// The receiver acks a coupled record as it enters the reorder heap,
	// so the heap holds at most one window. 0 means the default (16 MiB);
	// negative disables it.
	MaxRetransmitBytes int
}

// Default flow-control bounds (see the Max* knobs on Config).
const (
	DefaultMaxReorderBytes    = 16 << 20
	DefaultMaxReorderRecords  = 8192
	DefaultMaxRecvBufferBytes = 16 << 20
	DefaultMaxRetransmitBytes = 16 << 20
)

// boundOrDefault resolves a flow-control knob: 0 means def, negative
// means unlimited (returned as 0 so callers test `> 0`).
func boundOrDefault(v, def int) int {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

func (c Config) maxReorderBytes() int {
	return boundOrDefault(c.MaxReorderBytes, DefaultMaxReorderBytes)
}
func (c Config) maxReorderRecords() int {
	return boundOrDefault(c.MaxReorderRecords, DefaultMaxReorderRecords)
}
func (c Config) maxRecvBytes() int {
	return boundOrDefault(c.MaxRecvBufferBytes, DefaultMaxRecvBufferBytes)
}

// window is the send window in bytes; 0 without failover, where no
// acknowledgment flows.
func (c Config) window() int {
	if !c.EnableFailover {
		return 0
	}
	return boundOrDefault(c.MaxRetransmitBytes, DefaultMaxRetransmitBytes)
}

// charge is what a record of n payload bytes counts against the window:
// at least 1/DefaultMaxReorderRecords of it (2 KiB by default), so a
// window of tiny records holds no more records than the default limit.
func (c Config) charge(n int) uint64 {
	return uint64(max(n, c.window()/DefaultMaxReorderRecords))
}

func (c Config) ackPeriod() int {
	if c.AckPeriod > 0 {
		return c.AckPeriod
	}
	return 16
}

func (c Config) ackBytes() int {
	if c.AckBytes > 0 {
		return c.AckBytes
	}
	return 256 << 10
}

func (c Config) maxPayload() int {
	if c.MaxRecordPayload > 0 {
		return c.MaxRecordPayload
	}
	// Leave room for the largest trailer (coupled: 8-byte agg seq +
	// type byte) within the 16384-byte inner plaintext.
	return record.MaxPlaintextLen - 16
}

// EventKind enumerates session events.
type EventKind int

// Session events, drained by the I/O wrapper via Events.
const (
	// EventStreamOpen: the peer attached a new stream (Stream field).
	EventStreamOpen EventKind = iota
	// EventStreamData: a stream has new readable bytes.
	EventStreamData
	// EventCoupledData: the coupled group has new readable bytes.
	EventCoupledData
	// EventStreamFin: a stream finished cleanly.
	EventStreamFin
	// EventConnFailed: a connection was declared failed (UserTimeout
	// expiry, peer FAILOVER notification, or explicit report).
	EventConnFailed
	// EventFailoverDone: all streams of a failed connection were
	// resynchronized onto Conn.
	EventFailoverDone
	// EventAddAddr / EventRemoveAddr: the peer updated its address list.
	EventAddAddr
	EventRemoveAddr
	// EventNewCookies: the server replenished join cookies.
	EventNewCookies
	// EventTCPOption: an encrypted TCP option arrived (§4.2).
	EventTCPOption
	// EventBPFCC: a complete eBPF congestion-controller program arrived.
	EventBPFCC
	// EventEchoReply: a path probe returned; Token matches the request.
	EventEchoReply
	// EventConnClosed: the peer closed this connection gracefully.
	EventConnClosed
	// EventSessionTicket: a resumption ticket arrived (Data = opaque
	// ticket, Nonce = PSK-derivation nonce, MaxEarly = the issuer's
	// advertised 0-RTT budget).
	EventSessionTicket
)

// Event is one session-level occurrence.
type Event struct {
	Kind     EventKind
	Stream   uint32
	Conn     uint32
	Data     []byte
	Addr     []byte
	Cookies  [][16]byte
	OptKind  uint8
	OptVal   []byte
	Token    uint64
	Nonce    [16]byte
	MaxEarly uint32
}

// Session errors.
var (
	ErrUnknownConn    = errors.New("core: unknown connection")
	ErrUnknownStream  = errors.New("core: unknown stream")
	ErrConnFailed     = errors.New("core: connection already failed")
	ErrStreamFinished = errors.New("core: stream already finished")
	ErrNotCoupled     = errors.New("core: no coupled streams configured")
	ErrDuplicateConn  = errors.New("core: connection ID already exists")
	// ErrRecvBufferFull: a stream's receive buffer reached twice its
	// configured cap because the caller kept feeding Receive after the
	// RecvPaused backpressure signal tripped. The offending record is
	// still buffered (stream delivery is reliable; bytes cannot be
	// dropped once the sequence advanced) — the caller must drain Read
	// before feeding more.
	ErrRecvBufferFull = errors.New("core: receive buffer full")
	// ErrReorderLimit: the coupled reorder heap passed the receiver's
	// limit (Config.MaxReorderBytes / MaxReorderRecords), which an honest
	// sender's window never reaches. The session fails with it.
	ErrReorderLimit = errors.New("core: peer overran the coupled reorder limit")
)

// Session is the sans-IO TCPLS protocol engine for one endpoint of one
// TCPLS session. It is not safe for concurrent use; wrappers serialize
// access.
type Session struct {
	role  Role
	cfg   Config
	suite *record.Suite
	// The record key and base IV of each direction, expanded once from
	// this endpoint's application traffic secret (send) and the peer's
	// (recv): every stream context of a direction uses its key with an
	// IV offset by the stream ID.
	send, recv trafficKeys

	conns        map[uint32]*conn
	streams      map[uint32]*stream
	nextStreamID uint32

	events []Event

	// DeliverData, when set, receives stream payload directly from the
	// decrypted record buffer instead of the engine buffering it for
	// Read — the zero-copy delivery API of §4.1. The slice is only
	// valid during the call.
	DeliverData func(streamID uint32, payload []byte)
	// DeliverCoupled is the coupled-group equivalent: in-order chunks
	// straight from the reordering path.
	DeliverCoupled func(payload []byte)

	// pathSched picks the path for each coupled record; nil means the
	// default round-robin. metrics, when installed, is the path-metrics
	// store that builds the scheduler's PathView snapshots. clock
	// timestamps sent records for ACK-driven RTT sampling (nil =
	// time.Now; tests and simulations inject their own).
	pathSched sched.Scheduler
	metrics   *sched.Metrics
	clock     func() time.Time
	coupled   coupledState

	// pendingReplay collects streams the peer re-homed onto a new conn
	// during the current Receive batch; the send-side replay runs merged
	// at the end of the batch (flushPendingReplay) so coupled records
	// from sibling streams keep aggregation-sequence order on the wire.
	pendingReplay []streamReplay

	// bpf reassembly state (one program in flight at a time, §4.4).
	// bpfBytes counts stored chunk bytes so a forged chunk stream can
	// never outgrow the advertised program length.
	bpfChunks  [][]byte
	bpfGot     int
	bpfBytes   int
	bpfTotal   int
	bpfProgLen uint32

	// chunkGets/chunkPuts count output slices handed out (NextChunk,
	// Outgoing) and returned (RecycleOutgoing): every one must come back.
	// lent holds the chunks handed out and not yet recycled; pinned the
	// recycled ones that retained records keep from the pool, and
	// pinnedBytes the wire bytes they retain (retain.go).
	chunkGets   uint64
	chunkPuts   uint64
	lent        []*chunk
	pinned      []*chunk
	pinnedBytes int

	// bufs counts this session's Bufs (DESIGN.md §16): records decrypted
	// into one, and records a sparse chunk moved out. recvBuf is the one
	// the Receive batch decrypts into, nil between batches. ctlScratch is
	// the reused control-record scratch buffer.
	bufs       *record.BufferPool
	recvBuf    *record.Buf
	ctlScratch []byte

	// frameScratch is the receive path's reused frame struct; idCache
	// memoizes sortedStreamIDs (streams are only ever added, so a length
	// match means the cache is current). coupledCache and viewCache are
	// the coupled send path's scratch: coupledStreams' result and the
	// scheduler's per-call PathViews.
	frameScratch frame
	idCache      []uint32
	coupledCache []*stream
	viewCache    []sched.PathView

	// tracer and lastNow drive the QLOG-style event trace (trace.go);
	// nowStale: the next event is dated by a fresh clock reading.
	tracer   func(TraceEvent)
	lastNow  time.Time
	nowStale bool

	// stampWrites arms record write-time tracking for lifecycle spans:
	// Outgoing snapshots the records drained into each chunk, and the
	// I/O wrapper reports the chunk's socket-write time back through
	// NoteWritten (or NoteWriteDropped when the chunk was discarded).
	// Off by default so sans-IO consumers (sims, tests) that never call
	// NoteWritten accumulate no batch state.
	stampWrites bool

	// lastReorderDepth deduplicates reorder_depth trace events: one per
	// depth change, not one per coupled record.
	lastReorderDepth int

	// retransmitTotal sums payload bytes across every stream's retransmit
	// buffer (the per-stream values live on each stream); retransmitPeak
	// high-watermarks it.
	retransmitTotal int
	retransmitPeak  int

	// counts are the session-level counters; each conn keeps its own
	// Stats. picks holds the coupled records routed per scheduler policy,
	// curPicks the active policy's count, resolved when the scheduler is
	// first consulted.
	counts   telemetry.Counters
	picks    map[string]*uint64
	curPicks *uint64
}

// Stats are the engine's record counters, declared beside the Snapshot
// that carries them.
type Stats = telemetry.Stats

// coupledState is the session-wide coupled-stream group (§4.3; the
// prototype couples all coupled-flagged streams together).
type coupledState struct {
	sendSeq      uint64
	pendingQ     byteQueue // group bytes not yet sealed
	pendingSince time.Time // enqueue stamp of the oldest unflushed bytes
	buf          *reorder.Buffer
	recvQ        segQueue
	// recvBlocked: recvQ hit the receive-buffer cap; reported through
	// RecvPaused until ReadCoupled drains below half the cap.
	recvBlocked bool
	// win is the group's send window, counted in aggregation order.
	win sendWindow
	// peakBytes high-watermarks the reorder heap's payload bytes.
	peakBytes int
}

// NewSession builds an engine from completed handshake secrets.
func NewSession(role Role, secrets handshake.Secrets, cfg Config) *Session {
	s := &Session{
		role:    role,
		cfg:     cfg,
		suite:   secrets.Suite,
		conns:   make(map[uint32]*conn),
		streams: make(map[uint32]*stream),
	}
	sendSecret, recvSecret := secrets.ClientApp, secrets.ServerApp
	s.nextStreamID = firstClientStream
	if role != RoleClient {
		sendSecret, recvSecret = recvSecret, sendSecret
		s.nextStreamID = firstServerStream
	}
	s.send.key, s.send.iv = record.DeriveTrafficKeys(s.suite, sendSecret)
	s.recv.key, s.recv.iv = record.DeriveTrafficKeys(s.suite, recvSecret)
	s.coupled.buf = reorder.New(0)
	s.bufs = record.NewBufferPool()
	s.coupled.recvQ.pool = s.bufs
	return s
}

// Stats returns the engine's record counters: the sum of its
// connections' (the engine never drops a connection).
func (s *Session) Stats() Stats {
	var sum Stats
	for _, c := range s.conns {
		sum.Add(&c.stats)
	}
	return sum
}

// SetMetrics installs the path-metrics store the engine feeds with
// record-sent/acked/lost events and consults when building the
// scheduler's PathView snapshots.
func (s *Session) SetMetrics(m *sched.Metrics) { s.metrics = m }

// SetClock overrides the timestamp source used to stamp sent records
// for ACK-driven RTT sampling. nil restores time.Now. Simulations pass
// their virtual clock so metrics stay deterministic.
func (s *Session) SetClock(fn func() time.Time) { s.clock = fn }

// now returns the current send-side timestamp.
func (s *Session) now() time.Time {
	if s.clock != nil {
		return s.clock()
	}
	return time.Now()
}

// Events drains and returns pending events; the slice is the caller's.
func (s *Session) Events() []Event { return s.AppendEvents(nil) }

// AppendEvents drains pending events onto dst: the form that allocates
// nothing for a caller that keeps dst from one call to the next.
func (s *Session) AppendEvents(dst []Event) []Event {
	dst = append(dst, s.events...)
	clear(s.events)
	s.events = s.events[:0]
	return dst
}

func (s *Session) emit(ev Event) { s.events = append(s.events, ev) }

// trafficKeys is one direction's record key and base IV.
type trafficKeys struct{ key, iv []byte }

// newContext builds a stream context in one direction.
func (s *Session) newContext(k trafficKeys, streamID uint32) (*record.StreamContext, error) {
	return record.NewStreamContext(s.suite, k.key, k.iv, streamID)
}

// AddConnection registers a (just-established or just-joined) TCP
// connection under id and installs its control stream. now stamps
// last-activity for the UserTimeout machinery.
func (s *Session) AddConnection(id uint32, now time.Time) error {
	if _, ok := s.conns[id]; ok {
		return ErrDuplicateConn
	}
	c := &conn{id: id, lastRecv: now}
	ctlID := ctlStreamID(id)
	var err error
	if c.ctlSend, err = s.newContext(s.send, ctlID); err != nil {
		return err
	}
	ctlRecv, err := s.newContext(s.recv, ctlID)
	if err != nil {
		return err
	}
	c.demux.Attach(ctlRecv)
	s.conns[id] = c
	s.setNow(now)
	s.trace("conn_added", id, 0, 0, 0)
	return nil
}

// Stranded reports whether a stream homed on connection connID still
// holds bytes to deliver: with connID broken, they wait for a failover.
func (s *Session) Stranded(connID uint32) bool {
	for _, st := range s.streams {
		if st.conn == connID && (len(st.retransmit) > 0 || st.pendingQ.Len() > 0) {
			return true
		}
	}
	return false
}

// Connections returns the IDs of all live (non-failed) connections.
func (s *Session) Connections() []uint32 {
	var out []uint32
	for id, c := range s.conns {
		if !c.failed && !c.closed {
			out = append(out, id)
		}
	}
	return out
}

// conn is per-TCP-connection state.
type conn struct {
	id       uint32
	demux    record.Demux
	deframer record.Deframer
	ctlSend  *record.StreamContext
	// cur is the output chunk being sealed into; outQ holds the full
	// ones ahead of it, oldest first, until NextChunk hands them over.
	cur      *chunk
	outQ     []*chunk
	lastRecv time.Time
	failed   bool
	// failedOver marks a failed connection whose failover is settled: the
	// client has moved its streams and told the server where, or the
	// server has told the client (or been told). via is the connection
	// that carried it; if via fails in turn, the settlement reopens
	// (failConn). A settled connection has nothing left to resynchronize,
	// so FailoverTo rejects it.
	failedOver bool
	via        uint32
	closed     bool
	// Write-time span tracking (session.stampWrites): NextChunk copies
	// the data records of each chunk it hands over onto writeBatches (one
	// entry per chunk, possibly empty for control-only chunks), and
	// NoteWritten / NoteWriteDropped pop batches in the same FIFO order
	// the writer goroutine consumes chunks.
	writeBatches [][]spanKey
	// stats counts the records and bytes this connection carried.
	stats Stats
}

// room returns the chunk to seal the next record into, queueing the
// current one for a fresh one when it could not take a record of any size.
func (c *conn) room() *chunk {
	if c.cur == nil || outChunkBytes-len(c.cur.b) < record.MaxRecordLen {
		if c.cur != nil {
			c.outQ = append(c.outQ, c.cur)
		}
		c.cur = getChunk()
	}
	return c.cur
}

// sendCtl seals a control record onto the connection immediately,
// preserving control/data ordering on the byte stream.
func (s *Session) sendCtl(c *conn, content []byte) error {
	seq := c.ctlSend.Seq()
	ch := c.room()
	out, err := c.ctlSend.Seal(ch.b, record.ContentTypeApplicationData, content, 0)
	if err != nil {
		return err
	}
	ch.b = out
	c.stats.RecordsSent++
	s.trace("ctl_sent", c.id, ctlStreamID(c.id), seq, len(content))
	return nil
}

func (s *Session) getConn(id uint32) (*conn, error) {
	c, ok := s.conns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownConn, id)
	}
	return c, nil
}

func (s *Session) getStream(id uint32) (*stream, error) {
	st, ok := s.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownStream, id)
	}
	return st, nil
}

// NextChunk hands over the oldest chunk of bytes queued for transmission
// on conn, nil when nothing is queued. Bulk drivers drain a connection by
// calling it until then, and return each chunk with RecycleOutgoing.
func (s *Session) NextChunk(connID uint32) ([]byte, error) {
	c, err := s.getConn(connID)
	if err != nil {
		return nil, err
	}
	var ch *chunk
	switch {
	case len(c.outQ) > 0:
		ch = c.outQ[0]
		c.outQ = slices.Delete(c.outQ, 0, 1) // a handful of entries at most
	case c.cur != nil && len(c.cur.b) > 0:
		ch, c.cur = c.cur, nil
	default:
		return nil, nil
	}
	s.chunkGets++
	s.lent = append(s.lent, ch)
	if s.stampWrites {
		// One batch per chunk, even when the chunk carried only control
		// records (empty batch): NoteWritten pops in chunk order.
		c.writeBatches = append(c.writeBatches, slices.Clone(ch.recs))
	}
	return ch.b, nil
}

// Outgoing drains everything queued for transmission on conn as one
// slice, to be returned with RecycleOutgoing. A single chunk is handed
// over as it is; several are joined by a copy, which NextChunk avoids.
// It stays for bench/ladder.go's engine rung; internal/driver, the one
// driver of this engine, pulls with NextChunk.
func (s *Session) Outgoing(connID uint32) ([]byte, error) {
	out, err := s.NextChunk(connID)
	if err != nil || !s.HasOutgoing(connID) {
		return out, err
	}
	c := s.conns[connID]
	first := len(c.writeBatches) - 1
	var all []byte
	for ; out != nil; out, _ = s.NextChunk(connID) {
		all = append(all, out...)
		s.RecycleOutgoing(out)
	}
	s.chunkGets++
	if s.stampWrites {
		// The joined slice is written (or dropped) as one: one batch.
		c.writeBatches[first] = slices.Concat(c.writeBatches[first:]...)
		c.writeBatches = c.writeBatches[:first+1]
	}
	return all, nil
}

// spanKey names one retained record for write-time stamping: the stream
// it lives on and its TLS sequence number within that stream's context.
type spanKey struct {
	stream uint32
	seq    uint64
}

// SetWriteStamping arms (or disarms) socket-write-time tracking for
// record-lifecycle spans. When armed, every non-empty Outgoing chunk
// must be matched by exactly one NoteWritten or NoteWriteDropped call,
// in drain order, or batch state accumulates.
func (s *Session) SetWriteStamping(on bool) {
	s.stampWrites = on
	if !on {
		for _, c := range s.conns {
			c.writeBatches = nil
		}
	}
}

// NoteWritten reports that the oldest undrained Outgoing chunk of conn
// was written to the socket at now; the records it carried get their
// span's write leg stamped.
func (s *Session) NoteWritten(connID uint32, now time.Time) {
	for _, k := range s.popWriteBatch(connID) {
		if st, ok := s.streams[k.stream]; ok {
			st.stampWritten(k.seq, now)
		}
	}
}

// NoteWriteDropped reports that the oldest undrained Outgoing chunk of
// conn was discarded without reaching the socket (failed-conn drain):
// its records keep a zero write stamp until a failover replay rewrites
// them on another connection.
func (s *Session) NoteWriteDropped(connID uint32) { s.popWriteBatch(connID) }

// popWriteBatch retires conn's oldest unresolved Outgoing chunk and
// returns the data records it carried.
func (s *Session) popWriteBatch(connID uint32) []spanKey {
	c, ok := s.conns[connID]
	if !ok || len(c.writeBatches) == 0 {
		return nil
	}
	batch := c.writeBatches[0]
	// Shift down, not re-slice: the backing array stays, so a steady
	// stream of chunks allocates nothing here (a handful of entries at most).
	c.writeBatches = slices.Delete(c.writeBatches, 0, 1)
	return batch
}

// PendingWriteBatches counts Outgoing chunks handed out under write
// stamping that have not yet been resolved by NoteWritten or
// NoteWriteDropped. At session close this must be zero — every drained
// chunk's records end the session either stamped or explicitly dropped
// (span count-closure); a residue means an I/O path lost a chunk.
func (s *Session) PendingWriteBatches() int {
	n := 0
	for _, c := range s.conns {
		n += len(c.writeBatches)
	}
	return n
}

// RecycleOutgoing returns a slice obtained from NextChunk or Outgoing
// once the caller is done with it. Every one must come back exactly once
// — written, dropped, or discarded at close — or the chunk accounting
// (PoolStats) diverges. All are counted; one that is not a chunk as
// NextChunk handed it over (a joined Outgoing drain) is left to the
// collector; a chunk still retaining records for replay stays pinned.
func (s *Session) RecycleOutgoing(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	s.chunkPuts++
	for i, ch := range s.lent { // in hand-over order: usually the first
		if &ch.data[0] == &buf[:1][0] {
			s.lent = slices.Delete(s.lent, i, i+1)
			s.settle(ch)
			return
		}
	}
}

// PoolStats is the datapath buffer accounting: Buf counters from the
// session's BufferPool (receive buffers, the ones the queues and the
// reorder heap kept, retained records moved out of sparse chunks) and
// chunk counters for the NextChunk / Outgoing → RecycleOutgoing
// handoff. Both pairs balanced at session close (after ReleaseBuffers,
// the wrapper's final recycles and the last Read) proves no pooled
// buffer leaked and none was returned twice.
type PoolStats struct {
	PayloadGets uint64
	PayloadPuts uint64
	ChunkGets   uint64
	ChunkPuts   uint64
}

// PoolStats snapshots the datapath buffer accounting.
func (s *Session) PoolStats() PoolStats {
	gets, puts := s.bufs.Stats()
	return PoolStats{
		PayloadGets: gets,
		PayloadPuts: puts,
		ChunkGets:   s.chunkGets,
		ChunkPuts:   s.chunkPuts,
	}
}

// ReleaseBuffers returns to their pools the buffers nothing can use
// after teardown: the records retained for failover replay, in chunks
// and Bufs, and the coupled records parked behind a gap that will never
// fill. Call exactly once, at teardown; the engine must not seal, replay
// or receive afterwards. Delivered bytes stay readable — a receive
// queue's segments go back as Read drains them — so PoolStats balances
// once they have been read.
func (s *Session) ReleaseBuffers() {
	for _, st := range s.streams {
		for i := range st.retransmit {
			s.drop(&st.retransmit[i])
		}
		st.retransmit = nil
	}
	s.coupled.buf.Reset(s.coupled.buf.Next())
}

// HasOutgoing reports whether conn has bytes waiting without draining.
func (s *Session) HasOutgoing(connID uint32) bool {
	c, ok := s.conns[connID]
	return ok && (len(c.outQ) > 0 || c.cur != nil && len(c.cur.b) > 0)
}

// QueuedBytes reports how many sealed bytes wait for NextChunk on conn:
// what a driver that bounds its output queues checks before it takes a
// write.
func (s *Session) QueuedBytes(connID uint32) int {
	c, ok := s.conns[connID]
	if !ok {
		return 0
	}
	n := 0
	if c.cur != nil {
		n = len(c.cur.b)
	}
	for _, ch := range c.outQ { // a handful of entries at most
		n += len(ch.b)
	}
	return n
}

// Backlog is what a writer has waiting in the engine, for streamID or,
// when coupled, for the coupled group: the bytes no record carries yet —
// held back by a full send window or a failed connection — and the sealed
// bytes queued where they go (for the group, the deepest queue among its
// connections). A driver holds its writer while the backlog is full: the
// send window's back-pressure on the application.
func (s *Session) Backlog(streamID uint32, coupled bool) int {
	if !coupled {
		st, ok := s.streams[streamID]
		if !ok {
			return 0
		}
		return st.pendingQ.Len() + s.QueuedBytes(st.conn)
	}
	deepest := 0
	for _, st := range s.streams {
		if st.coupled && !st.finSent {
			deepest = max(deepest, s.QueuedBytes(st.conn))
		}
	}
	return s.coupled.pendingQ.Len() + deepest
}

// Parked reports whether queued bytes wait for acknowledgments to open
// their send window: an orderly close waits for them too.
func (s *Session) Parked() bool {
	for _, st := range s.streams {
		if s.parked(st) {
			return true
		}
	}
	return false
}

// parked reports whether bytes for st, its own or its coupled group's,
// wait at a full send window.
func (s *Session) parked(st *stream) bool {
	return st.win.parked && st.pendingQ.Len() > 0 ||
		st.coupled && !st.finSent && s.coupled.win.parked && s.coupled.pendingQ.Len() > 0
}

// Snapshot fills dst with the engine's observable state (DESIGN.md
// §10.1) in one pass over the connections and one over the streams,
// rows in ascending ID order. It reuses dst's rows, so a caller that
// keeps dst from one call to the next allocates nothing; the envelope
// fields are the wrapper's and are left zero.
func (s *Session) Snapshot(dst *telemetry.Snapshot) {
	dst.Reset()
	dst.Scheduler = "roundrobin"
	if s.pathSched != nil {
		dst.Scheduler = s.pathSched.Name()
	}
	dst.StreamsOpen = len(s.streams)
	dst.ReorderDepth = s.coupled.buf.Pending()
	dst.ReorderBytes = s.coupled.buf.PendingBytes()
	dst.ReorderBytesPeak = s.coupled.peakBytes
	dst.RetransmitBytes = s.retransmitTotal
	dst.RetransmitBytesPeak = s.retransmitPeak
	dst.MemoryBytes = s.BufferedBytes()
	dst.Counters = s.counts
	if len(s.picks) > 0 && dst.SchedPicks == nil {
		dst.SchedPicks = make(map[string]uint64, len(s.picks))
	}
	for policy, n := range s.picks {
		dst.SchedPicks[policy] = *n
	}

	for id, c := range s.conns {
		live := !c.failed && !c.closed
		if live {
			dst.ConnsLive++
		}
		row := telemetry.ConnSnapshot{
			ID:          id,
			Failed:      c.failed,
			Closed:      c.closed,
			RecvPaused:  live && s.coupled.recvBlocked,
			QueuedBytes: s.QueuedBytes(id),
			LastRecvUS:  traceUS(c.lastRecv),
			Stats:       c.stats,
		}
		if s.metrics != nil {
			if ps, ok := s.metrics.Snapshot(id); ok {
				row.SRTTUS = int64(ps.SRTT / time.Microsecond)
				row.RTTVarUS = int64(ps.RTTVar / time.Microsecond)
				row.DeliveryRate = ps.DeliveryRate
				row.InFlight, row.Losses = ps.InFlight, ps.Losses
			}
		}
		dst.Stats.Add(&c.stats)
		dst.Conns = append(dst.Conns, row)
	}
	byID := func(c telemetry.ConnSnapshot, id uint32) int { return cmp.Compare(c.ID, id) }
	slices.SortFunc(dst.Conns, func(a, b telemetry.ConnSnapshot) int { return byID(a, b.ID) })

	for _, id := range s.sortedStreamIDs() {
		st := s.streams[id]
		row := telemetry.StreamSnapshot{
			ID:            id,
			Conn:          st.conn,
			Coupled:       st.coupled,
			FinQueued:     st.finQueued,
			FinSent:       st.finSent,
			PeerFin:       st.peerFin,
			RecvBlocked:   st.recvBlocked,
			AckSolicited:  st.ackSolicited,
			PendingBytes:  st.pendingQ.Len(),
			RetransmitQ:   len(st.retransmit),
			UnackedBytes:  st.retransmitBytes,
			RecvBuffered:  st.recvQ.Len(),
			NextSendSeq:   st.sendCtx.Seq(),
			PeerAckedSeq:  st.peerAcked,
			BytesSent:     st.bytesSent,
			BytesReceived: st.bytesReceived,
		}
		if i, ok := slices.BinarySearchFunc(dst.Conns, st.conn, byID); ok {
			c := &dst.Conns[i]
			row.Parked = c.Failed
			// Same rule as RecvPaused: a full uncoupled stream pauses the
			// connection its records arrive on.
			if st.recvBlocked && !st.coupled && !c.Failed && !c.Closed {
				c.RecvPaused = true
			}
		}
		dst.Streams = append(dst.Streams, row)
	}
}

// BufferedBytes sums every buffer the engine holds on behalf of the
// peer or the application (Snapshot's MemoryBytes): the coupled reorder
// heap; the records retained for failover replay, in chunks and Bufs,
// counted by payload bytes; the
// coupled group's receive buffer and unsent pending data; and each
// stream's. This scalar form is what the server runtime rolls up across
// thousands of sessions into its process-wide memory budget.
func (s *Session) BufferedBytes() int {
	total := s.coupled.buf.PendingBytes() + s.retransmitTotal +
		s.coupled.recvQ.Len() + s.coupled.pendingQ.Len()
	for _, st := range s.streams {
		total += st.recvQ.Len() + st.pendingQ.Len()
	}
	return total
}

// RecvPaused reports whether the receive side wants the I/O wrapper to
// stop reading connID's socket: some stream whose records arrive on
// that connection (or the coupled group, whose records may arrive on
// any connection) has a full receive buffer. Pausing reads lets TCP's
// own receive window close and push back on the peer.
func (s *Session) RecvPaused(connID uint32) bool {
	c, ok := s.conns[connID]
	if !ok || c.failed || c.closed {
		return false
	}
	if s.coupled.recvBlocked {
		return true
	}
	for _, st := range s.streams {
		if st.recvBlocked && !st.coupled && st.conn == connID {
			return true
		}
	}
	return false
}

// noteRetransmitBytes adjusts the session-wide retransmit-buffer byte
// total by delta and refreshes its peak.
func (s *Session) noteRetransmitBytes(delta int) {
	s.retransmitTotal += delta
	if s.retransmitTotal > s.retransmitPeak {
		s.retransmitPeak = s.retransmitTotal
	}
}
