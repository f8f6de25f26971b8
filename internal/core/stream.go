package core

import (
	"fmt"
	"time"

	"tcpls/internal/record"
	"tcpls/internal/telemetry"
)

// stream is per-stream state. Streams are bidirectional and attached to
// exactly one TCP connection at a time (paper §3.3.1); only Failover
// moves an existing stream between connections.
type stream struct {
	id   uint32
	conn uint32

	// Send side.
	sendCtx    *record.StreamContext
	pendingQ   byteQueue    // application bytes not yet sealed
	retransmit []sentRecord // sealed but unacknowledged (failover only), in seq order
	peerAcked  uint64       // next seq the peer has NOT acknowledged
	coupled    bool
	finQueued  bool
	finSent    bool
	// retransmitBytes sums payload bytes across retransmit. win is the
	// send window of the stream's plain records (coupled ones count in
	// the group's); ackSolicited marks an AckRequest in flight, cleared
	// by any ack on the stream.
	retransmitBytes int
	win             sendWindow
	ackSolicited    bool
	// pendingSince stamps when the oldest unflushed bytes entered
	// pending — the enqueue leg of the record-lifecycle span. Re-stamped
	// whenever Write finds the queue empty.
	pendingSince time.Time

	// Receive side. The receive context lives in the owning conn's
	// demux; recvCtx duplicates the pointer for direct access. recvQ
	// keeps, by reference, the Buf a record was decrypted into when the
	// payload fills at least half of it, and copies smaller ones (recv.go).
	recvCtx *record.StreamContext
	recvQ   segQueue
	// recvBlocked: recvQ hit Config.MaxRecvBufferBytes; reported
	// through RecvPaused until Read drains below half the cap.
	recvBlocked    bool
	nextDeliverSeq uint64 // duplicate filter across failover replays
	recvSinceAck   int
	bytesSinceAck  int
	peerFin        bool
	peerFinalSeq   uint64

	// tel holds the per-stream byte counters; non-nil exactly when the
	// session's telemetry is installed.
	tel *telemetry.StreamMetrics
}

// sentRecord is one record retained for potential failover replay. It
// doubles as the record's lifecycle span: enqAt/sentAt/writtenAt are the
// enqueue, seal, and socket-write legs, and the acknowledgment that
// trims the record completes the span (trace.go traceSpan).
type sentRecord struct {
	seq uint64
	typ recordType
	// wire is the record exactly as sealed, header included: a replay
	// resends it as is. It views the output chunk it was sealed into (in)
	// until a sparse chunk moves it into a pooled Buf (moved; retain.go).
	// An ack or ReleaseBuffers drops it.
	wire  []byte
	in    *chunk
	moved *record.Buf
	// size is the payload bytes; off is where the record starts in its
	// send window (the stream's, or the coupled group's).
	size   int
	off    uint64
	aggSeq uint64
	// sentAt stamps the seal time for ACK-driven RTT sampling and the
	// span's seal leg; retxCount counts failover replays — a nonzero
	// count bars the record from RTT sampling (Karn's algorithm, either
	// copy could have produced the ack) and is the span's replay
	// provenance.
	sentAt    time.Time
	enqAt     time.Time
	writtenAt time.Time
	origConn  uint32
	retxCount uint16
}

// stampWritten records the socket-write time of the record with seq.
// retransmit is seq-sorted; the scan runs from the back because the
// just-written records are the newest. A replay's stamp overwrites the
// original — the span reports the final successful write.
func (st *stream) stampWritten(seq uint64, now time.Time) {
	for i := len(st.retransmit) - 1; i >= 0; i-- {
		r := &st.retransmit[i]
		if r.seq == seq {
			r.writtenAt = now
			return
		}
		if r.seq < seq {
			return
		}
	}
}

// CreateStream opens a new locally-initiated stream attached to connID
// and announces it to the peer. It returns the new stream ID.
func (s *Session) CreateStream(connID uint32) (uint32, error) {
	c, err := s.getConn(connID)
	if err != nil {
		return 0, err
	}
	if c.failed || c.closed {
		return 0, ErrConnFailed
	}
	id := s.nextStreamID
	s.nextStreamID += 2
	if _, err := s.installStream(id, connID); err != nil {
		return 0, err
	}
	if err := s.sendCtl(c, appendStreamAttach(nil, id)); err != nil {
		return 0, err
	}
	return id, nil
}

// InjectEarlyData delivers a 0-RTT payload the handshake layer accepted
// (server side): the client's early flight becomes the first readable
// bytes of the client's first stream, before any engine record arrives.
// The stream is installed with fresh application-secret contexts at
// sequence zero, exactly where the client's post-handshake records for
// the same stream will start; the client's later STREAM_ATTACH finds
// the stream already present and re-homes it harmlessly.
func (s *Session) InjectEarlyData(data []byte) (uint32, error) {
	if s.role != RoleServer {
		return 0, fmt.Errorf("core: early data injection is server-side only")
	}
	id := firstClientStream
	st, err := s.installStream(id, 0)
	if err != nil {
		return 0, err
	}
	st.recvQ.Append(data)
	s.trace("early_data_accepted", 0, id, 0, len(data))
	s.emit(Event{Kind: EventStreamOpen, Stream: id, Conn: 0})
	if len(data) > 0 {
		s.emit(Event{Kind: EventStreamData, Stream: id, Conn: 0})
	}
	return id, nil
}

// installStream builds both directions' contexts for stream id and
// registers the receive side with connID's demux.
func (s *Session) installStream(id, connID uint32) (*stream, error) {
	if _, exists := s.streams[id]; exists {
		return nil, fmt.Errorf("core: stream %d already exists", id)
	}
	c, err := s.getConn(connID)
	if err != nil {
		return nil, err
	}
	st := &stream{id: id, conn: connID, recvQ: segQueue{pool: s.bufs}}
	st.tel = s.tel.Stream(id) // nil-safe: nil SessionMetrics yields nil handles
	if st.sendCtx, err = s.newContext(s.send, id); err != nil {
		return nil, err
	}
	if st.recvCtx, err = s.newContext(s.recv, id); err != nil {
		return nil, err
	}
	c.demux.Attach(st.recvCtx)
	s.streams[id] = st
	s.telSyncGauges()
	return st, nil
}

// StreamConn returns the connection a stream is attached to.
func (s *Session) StreamConn(streamID uint32) (uint32, error) {
	st, err := s.getStream(streamID)
	if err != nil {
		return 0, err
	}
	return st.conn, nil
}

// Write takes application bytes for a stream. With nothing queued ahead
// the whole records among them are sealed at once, straight from data
// (+11 % on bulk_1s over queueing everything); the sub-record tail, and
// what a stream parked at its send window leaves, waits for the next
// Flush: Backlog tells a writer how much waits. On a seal error it
// returns the bytes already sealed.
func (s *Session) Write(streamID uint32, data []byte) (int, error) {
	st, err := s.getStream(streamID)
	if err != nil {
		return 0, err
	}
	if st.finQueued {
		return 0, ErrStreamFinished
	}
	n := len(data)
	if st.pendingQ.Len() == 0 {
		st.pendingSince = s.now()
		if whole := n - n%s.cfg.maxPayload(); whole > 0 {
			s.stampSendTrace()
			sealed, err := s.sealStream(st, data[:whole])
			if err != nil {
				return sealed, err
			}
			data = data[sealed:]
		}
	}
	st.pendingQ.Append(data)
	return n, nil
}

// Read drains buffered in-order bytes from a stream.
func (s *Session) Read(streamID uint32, p []byte) (int, error) {
	st, err := s.getStream(streamID)
	if err != nil {
		return 0, err
	}
	n := st.recvQ.ReadInto(p)
	// Backpressure hysteresis: resume socket reads once the buffer has
	// drained below half its cap, not on the first byte read.
	if st.recvBlocked && st.recvQ.Len() <= s.cfg.maxRecvBytes()/2 {
		st.recvBlocked = false
	}
	return n, nil
}

// Readable returns the number of buffered readable bytes on a stream.
func (s *Session) Readable(streamID uint32) int {
	st, ok := s.streams[streamID]
	if !ok {
		return 0
	}
	return st.recvQ.Len()
}

// PeerFinished reports whether the peer finished the stream and all its
// data has been read — by the duplicate filter's high-water, not a
// receive context's counter: after a re-home there are several.
func (s *Session) PeerFinished(streamID uint32) bool {
	st, ok := s.streams[streamID]
	return ok && st.peerFin && st.recvQ.Len() == 0 &&
		st.nextDeliverSeq >= st.peerFinalSeq
}

// FinishStream marks the local send side of a stream as done; the FIN
// control record goes out with the next Flush, after all queued data.
func (s *Session) FinishStream(streamID uint32) error {
	st, err := s.getStream(streamID)
	if err != nil {
		return err
	}
	if st.finQueued {
		return ErrStreamFinished
	}
	st.finQueued = true
	return nil
}

// SetCoupled flags a stream as part of the session's coupled group
// (§3.3.3): its records carry aggregation sequence numbers and the
// receiver delivers the coupled group's bytes in aggregate order.
func (s *Session) SetCoupled(streamID uint32, coupled bool) error {
	st, err := s.getStream(streamID)
	if err != nil {
		return err
	}
	st.coupled = coupled
	return nil
}

// coupledStreams lists coupled streams in deterministic (creation) order.
func (s *Session) coupledStreams() []*stream {
	var out []*stream
	for _, id := range s.sortedStreamIDs() {
		if st := s.streams[id]; st.coupled && !st.finSent {
			out = append(out, st)
		}
	}
	return out
}

// WriteCoupled takes bytes for the coupled group; records are spread
// across the coupled streams (and hence their connections) by the
// scheduler — whole records with nothing queued ahead at once, as in
// Write, the rest at Flush time.
func (s *Session) WriteCoupled(data []byte) (int, error) {
	cs := s.coupledStreams()
	if len(cs) == 0 {
		return 0, ErrNotCoupled
	}
	n := len(data)
	if s.coupled.pendingQ.Len() == 0 {
		s.coupled.pendingSince = s.now()
		if whole := n - n%s.cfg.maxPayload(); whole > 0 {
			s.stampSendTrace()
			sealed, err := s.sealCoupled(data[:whole])
			if err != nil {
				return sealed, err
			}
			data = data[sealed:]
		}
	}
	s.coupled.pendingQ.Append(data)
	return n, nil
}

// ReadCoupled drains in-order bytes delivered by the coupled group.
func (s *Session) ReadCoupled(p []byte) int {
	n := s.coupled.recvQ.ReadInto(p)
	if s.coupled.recvBlocked && s.coupled.recvQ.Len() <= s.cfg.maxRecvBytes()/2 {
		s.coupled.recvBlocked = false
	}
	return n
}

// CoupledReadable returns buffered coupled bytes.
func (s *Session) CoupledReadable() int { return s.coupled.recvQ.Len() }

// CoupledActive reports whether any stream is currently coupled (so a
// receiver knows to read the aggregate instead of individual streams).
func (s *Session) CoupledActive() bool {
	for _, st := range s.streams {
		if st.coupled {
			return true
		}
	}
	return false
}
