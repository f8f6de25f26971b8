package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"tcpls/internal/record"
)

// Receive feeds raw bytes read from connID's TCP connection into the
// engine: records are deframed, trial-decrypted to their stream, and
// dispatched. now stamps connection activity for the UserTimeout timer.
//
// Receive never writes into data: each record is decrypted out of place
// into a pooled Buf borrowed for the batch (s.recvBuf). A receive queue
// or the reorder heap that keeps a record takes the Buf with it and the
// next record borrows another; the one left over goes back before
// Receive returns, so no spare is held between calls.
func (s *Session) Receive(connID uint32, data []byte, now time.Time) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	c.lastRecv = now
	s.lastNow = now
	c.deframer.Feed(data)
	defer func() {
		c.deframer.Compact() // data may be a reused read buffer
		s.recvBuf.Release()
		s.recvBuf = nil
	}()
	for {
		rec, ok, err := c.deframer.Next()
		if err != nil {
			s.pendingReplay = nil
			return err
		}
		if !ok {
			// Peer-initiated failover: replay our send side for every
			// stream the peer re-homed in this batch, merged (see
			// handleStreamAttach). Batching matters — the peer's ATTACHes
			// for all its failed conns' streams usually land in one read,
			// and replaying them stream by stream would interleave coupled
			// aggregation sequences on the wire.
			return s.flushPendingReplay(c)
		}
		if err := s.handleRecord(c, rec); err != nil {
			s.pendingReplay = nil
			return err
		}
	}
}

// flushPendingReplay runs the merged send-side replay for streams the
// peer just re-homed onto c (collected by handleStreamAttach during the
// current Receive batch).
func (s *Session) flushPendingReplay(c *conn) error {
	if len(s.pendingReplay) == 0 {
		return nil
	}
	moves := s.pendingReplay
	s.pendingReplay = nil
	return s.replayMerged(moves, c)
}

// handleRecord demultiplexes and dispatches one full TLS record.
func (s *Session) handleRecord(c *conn, rec []byte) error {
	if s.recvBuf == nil {
		s.recvBuf = s.bufs.Get(record.MaxRecordLen)
	}
	streamID, _, content, err := c.demux.Open(rec, s.recvBuf.Bytes())
	if err != nil {
		if errors.Is(err, record.ErrNoStreamMatch) {
			// Forgery or desynchronized peer: the paper counts these
			// against the AEAD forgery budget and drops them. On a real
			// TCP connection this is unrecoverable (record boundaries
			// stay intact, so it is not a resync issue) — but dropping
			// keeps the engine alive for the sim's adversarial tests.
			s.stats.FailedDecrypts++
			if s.tel != nil {
				c.tel.FailedDecrypts.Inc()
			}
			return nil
		}
		return err
	}
	s.stats.RecordsReceived++
	if s.tel != nil {
		c.tel.RecordsReceived.Inc()
	}
	// One frame scratch per session: the record is fully handled before
	// the next parse, so nothing retains the struct (slices inside it
	// that outlive the call, like cookies, are freshly parsed anyway).
	f := &s.frameScratch
	if err := parseFrame(f, content); err != nil {
		return err
	}
	switch f.typ {
	case typeStreamData, typeStreamDataCoupled:
		return s.handleStreamData(c, streamID, f)
	default:
		// Record-level arrival mark for control frames, so a trace
		// reconstructs per-conn records-received exactly: every decrypted
		// record is either record_received, dup_dropped, or ctl_received.
		s.trace("ctl_received", c.id, streamID, uint64(f.typ), len(content))
		return s.handleControl(c, streamID, f)
	}
}

// handleStreamData delivers stream payload, filtering failover
// duplicates and running the ack policy.
func (s *Session) handleStreamData(c *conn, streamID uint32, f *frame) error {
	st, err := s.getStream(streamID)
	if err != nil {
		return err
	}
	// The record's sequence number is the one the context just consumed.
	// Ask the arrival connection's demux for it: after a re-home the old
	// and new connections carry independent context clones (the old one
	// keeps decrypting late in-flight records at its own sequence), so
	// st.recvCtx — the newest clone — is not necessarily the context
	// that opened this record.
	ctx := c.demux.Context(streamID)
	if ctx == nil {
		ctx = st.recvCtx
	}
	seq := ctx.Seq() - 1
	s.stats.BytesReceived += uint64(len(f.payload))
	if s.tel != nil {
		c.tel.BytesReceived.Add(uint64(len(f.payload)))
		st.tel.BytesReceived.Add(uint64(len(f.payload)))
	}

	if seq < st.nextDeliverSeq {
		// Failover replay of a record we already delivered (the peer's
		// ack state lagged): count and drop.
		s.stats.DupRecordsDropped++
		if s.tel != nil {
			c.tel.DupRecords.Inc()
		}
		s.trace("dup_dropped", c.id, streamID, seq, len(f.payload))
		// A duplicate proves the peer's ack state is stale: it replayed a
		// record we already delivered because the ack never reached it
		// (lost with a failed connection). Ack unconditionally — the
		// AckPeriod pacing in maybeAck counts only fresh records, so an
		// all-duplicate replay would otherwise never trigger an ack and
		// the peer would replay the same records on every failover until
		// its user timeout gave up.
		s.sendAck(c, st)
		return nil
	}
	st.nextDeliverSeq = seq + 1
	s.trace("record_received", c.id, streamID, seq, len(f.payload))

	if f.typ == typeStreamDataCoupled {
		st.coupled = true // receiver learns coupling from the records
		// Coupled delivery: order across the group by aggregation
		// sequence number through the reordering heap (§4.3). A record
		// at or ahead of its turn that fills at least half its receive
		// Buf goes on with the Buf, parked and then kept by recvQ, never
		// copied; a smaller one ahead of its turn parks as a copy of its
		// own size, since the caps count payload bytes, not Bufs pinned.
		data, own := f.payload, (*record.Buf)(nil)
		if next := s.coupled.buf.Next(); f.aggSeq >= next {
			if len(data) >= record.MaxRecordLen/2 {
				own, s.recvBuf = s.recvBuf, nil // the next record borrows another
			} else if f.aggSeq > next {
				data = slices.Clone(data)
			}
		}
		delivered := s.coupled.buf.OfferOwned(f.aggSeq, data, own)
		for _, it := range delivered {
			switch {
			case s.DeliverCoupled != nil:
				s.DeliverCoupled(it.Data)
				it.Owner.Release()
			case it.Owner != nil:
				s.coupled.recvQ.Adopt(it.Owner, len(it.Data))
			default:
				s.coupled.recvQ.Append(it.Data)
			}
		}
		if err := s.noteReorder(c, streamID, len(delivered)); err != nil {
			return err
		}
		if s.DeliverCoupled == nil {
			if len(delivered) > 0 {
				s.emit(Event{Kind: EventCoupledData, Stream: streamID, Conn: c.id})
			}
			if err := s.checkRecvCap(c, streamID, s.coupled.recvQ.Len(), &s.coupled.recvBlocked); err != nil {
				return err
			}
		}
	} else if s.DeliverData != nil {
		s.DeliverData(streamID, f.payload)
	} else {
		if len(f.payload) >= record.MaxRecordLen/2 {
			st.recvQ.Adopt(s.recvBuf, len(f.payload))
			s.recvBuf = nil
		} else {
			st.recvQ.Append(f.payload)
		}
		s.emit(Event{Kind: EventStreamData, Stream: streamID, Conn: c.id})
		if err := s.checkRecvCap(c, streamID, st.recvQ.Len(), &st.recvBlocked); err != nil {
			return err
		}
	}

	st.recvSinceAck++
	st.bytesSinceAck += len(f.payload)
	s.maybeAck(c, st)
	return nil
}

// checkRecvCap applies the receive-buffer bound after buffered bytes
// grew. At the cap it raises the stream's (or the coupled group's)
// backpressure flag — surfaced through RecvPaused so the I/O wrapper
// stops reading the socket and TCP's receive window closes. At twice
// the cap — only reachable by callers that keep feeding Receive past
// the backpressure signal — it returns ErrRecvBufferFull. The record
// is already buffered either way: delivery is reliable, so bytes are
// never dropped once their sequence advanced.
func (s *Session) checkRecvCap(c *conn, streamID uint32, buffered int, blocked *bool) error {
	cap := s.cfg.maxRecvBytes()
	if cap <= 0 {
		return nil
	}
	if buffered >= cap && !*blocked {
		*blocked = true
		s.trace("flowctl_limit", c.id, streamID, flowctlRecvBuffer, buffered)
		if s.tel != nil {
			s.tel.FlowctlLimits.Inc()
		}
	}
	if buffered >= 2*cap {
		return fmt.Errorf("stream %d: %d bytes buffered: %w", streamID, buffered, ErrRecvBufferFull)
	}
	return nil
}

// noteReorder books the coupled reorder heap after a record entered it
// (its peak, gauges, one reorder_depth trace per depth change) and
// applies the receiver's limit against a peer that ignores its send
// window. An honest sender seals no record past its window, and every
// record below its oldest unacknowledged one has arrived here, so the
// heap holds less than one window: with failover, a heap past
// Config.MaxReorderBytes or MaxReorderRecords fails the session with
// ErrReorderLimit, pinning at most the record that crossed it. Without
// failover no acknowledgment bounds the sender; a silent path is left to
// the UserTimeout and RST either way.
func (s *Session) noteReorder(c *conn, streamID uint32, delivered int) error {
	bytes, depth := s.coupled.buf.PendingBytes(), s.coupled.buf.Pending()
	s.coupled.peakBytes = max(s.coupled.peakBytes, bytes)
	if s.tel != nil {
		s.tel.ReorderBytes.Set(int64(bytes))
		s.tel.ReorderDepth.Set(int64(depth))
	}
	if depth != s.lastReorderDepth {
		s.trace("reorder_depth", c.id, streamID, uint64(depth), delivered)
		s.lastReorderDepth = depth
	}
	maxBytes, maxRecs := s.cfg.maxReorderBytes(), s.cfg.maxReorderRecords()
	if !s.cfg.EnableFailover || (maxBytes <= 0 || bytes <= maxBytes) && (maxRecs <= 0 || depth <= maxRecs) {
		return nil
	}
	s.trace("flowctl_limit", c.id, streamID, flowctlReorder, bytes)
	if s.tel != nil {
		s.tel.FlowctlLimits.Inc()
	}
	return fmt.Errorf("%d bytes in %d records: %w", bytes, depth, ErrReorderLimit)
}

// maybeAck applies the §4.2 acknowledgment policy: every AckPeriod
// records or AckBytes bytes, when failover is enabled.
func (s *Session) maybeAck(c *conn, st *stream) {
	if !s.cfg.EnableFailover {
		return
	}
	if st.recvSinceAck < s.cfg.ackPeriod() && st.bytesSinceAck < s.cfg.ackBytes() {
		return
	}
	s.sendAck(c, st)
}

func (s *Session) sendAck(c *conn, st *stream) {
	// Ack the cumulative delivery high-water, not the receive context's
	// counter: after a SYNC rollback the context replays below
	// nextDeliverSeq, and acking the rolled-back counter would tell the
	// peer less than we actually hold. The scratch buffer is safe to
	// reuse because sendCtl seals the content immediately.
	s.ctlScratch = appendAck(s.ctlScratch[:0], st.id, st.nextDeliverSeq)
	if err := s.sendCtl(c, s.ctlScratch); err != nil {
		return
	}
	s.trace("ack_sent", c.id, st.id, st.nextDeliverSeq, 0)
	s.stats.AcksSent++
	if s.tel != nil {
		c.tel.AcksSent.Inc()
	}
	st.recvSinceAck = 0
	st.bytesSinceAck = 0
}

// FlushAcks forces acknowledgments for all streams with unacked receipts
// (used at transfer end so the sender can drain retransmit buffers).
// Streams are walked in ID order so the emitted ack sequence — and any
// trace built from it — is deterministic.
func (s *Session) FlushAcks() {
	for _, id := range s.sortedStreamIDs() {
		st := s.streams[id]
		if st.recvSinceAck > 0 {
			if c, ok := s.conns[st.conn]; ok && !c.failed {
				s.sendAck(c, st)
			}
		}
	}
}

// handleControl dispatches a non-data frame.
func (s *Session) handleControl(c *conn, streamID uint32, f *frame) error {
	switch f.typ {
	case typeAck:
		return s.handleAck(f)
	case typeSync:
		return s.handleSync(c, f)
	case typeFailover:
		return s.handleFailoverNotice(c, f)
	case typeStreamAttach:
		return s.handleStreamAttach(c, f)
	case typeStreamDetach:
		return s.handleStreamDetach(c, f)
	case typeStreamFin:
		return s.handleStreamFin(c, f)
	case typeTCPOption:
		s.emit(Event{Kind: EventTCPOption, Conn: c.id, OptKind: f.optKind,
			OptVal: append([]byte(nil), f.optVal...)})
		return nil
	case typeAddAddr:
		s.emit(Event{Kind: EventAddAddr, Conn: c.id, Addr: append([]byte(nil), f.addr...)})
		return nil
	case typeRemoveAddr:
		s.emit(Event{Kind: EventRemoveAddr, Conn: c.id, Addr: append([]byte(nil), f.addr...)})
		return nil
	case typeNewCookie:
		s.emit(Event{Kind: EventNewCookies, Conn: c.id, Cookies: f.cookies})
		return nil
	case typeAckRequest:
		return s.handleAckRequest(c, f)
	case typeBPFCC:
		return s.handleBPFChunk(c, f)
	case typeEchoRequest:
		return s.sendCtl(c, appendEcho(nil, typeEchoReply, f.token))
	case typeEchoReply:
		s.emit(Event{Kind: EventEchoReply, Conn: c.id, Token: f.token})
		return nil
	case typeConnClose:
		c.closed = true
		s.telSyncGauges()
		s.emit(Event{Kind: EventConnClosed, Conn: c.id})
		return nil
	case typeSessionTicket:
		s.emit(Event{Kind: EventSessionTicket, Conn: c.id,
			Data: append([]byte(nil), f.chunk...), Nonce: f.nonce,
			MaxEarly: f.maxEarly})
		return nil
	default:
		return fmt.Errorf("core: unhandled control type %#x", uint8(f.typ))
	}
}

// handleAck advances the peer-acked watermark and trims the retransmit
// buffer (Fig. 4's sender-side bookkeeping). Trimmed records double as
// the path-metrics signal: their bytes leave flight, and the newest
// cleanly-acked record yields an RTT sample (retransmits are skipped —
// Karn's algorithm — since their ack could belong to either copy).
func (s *Session) handleAck(f *frame) error {
	st, err := s.getStream(f.id)
	if err != nil {
		// Acks may race stream teardown; ignore unknown streams.
		return nil
	}
	s.stats.AcksReceived++
	s.trace("ack_received", st.conn, f.id, f.seq, 0)
	if s.tel != nil {
		if hc, ok := s.conns[st.conn]; ok {
			hc.tel.AcksReceived.Inc()
		}
	}
	if f.seq > st.peerAcked {
		st.peerAcked = f.seq
	}
	// Any ack answers an outstanding solicitation: the peer has told us
	// all it holds, and a sender still parked may ask again.
	st.ackSolicited = false
	i := 0
	ackedBytes := 0
	var rttSample time.Duration
	for i < len(st.retransmit) && st.retransmit[i].seq < st.peerAcked {
		r := &st.retransmit[i]
		ackedBytes += r.size
		if r.retxCount == 0 && !r.sentAt.IsZero() {
			if d := s.lastNow.Sub(r.sentAt); d > 0 {
				rttSample = d
			}
		}
		// The acknowledgment completes this record's lifecycle span and
		// ends its retention.
		s.traceSpan(st.conn, st.id, r)
		s.drop(r)
		i++
	}
	if i > 0 {
		st.retransmit = append(st.retransmit[:0], st.retransmit[i:]...)
		s.boundPinned() // the chunks still pinned may have gone sparse
		st.retransmitBytes -= ackedBytes
		s.noteRetransmitBytes(-ackedBytes)
		if s.tel != nil && rttSample > 0 {
			s.tel.AckRTT.Observe(rttSample.Seconds())
		}
		if s.metrics != nil {
			s.metrics.OnAcked(st.conn, ackedBytes, rttSample, s.lastNow)
		}
		if s.pathSched != nil {
			s.pathSched.OnAcked(st.conn, ackedBytes, rttSample)
		}
	}
	return nil
}

// handleStreamAttach installs a peer-initiated stream, or re-homes an
// existing stream's receive context onto this connection (failover).
func (s *Session) handleStreamAttach(c *conn, f *frame) error {
	if st, ok := s.streams[f.id]; ok {
		if c.failed || c.closed {
			// A stale ATTACH, still in flight when this connection was
			// declared dead and the stream moved on: adopting it would
			// re-home the stream onto a connection nothing travels on.
			return nil
		}
		// Existing stream moving here (failover path).
		old, hadOld := s.conns[st.conn]
		if hadOld && old != c && old.failed {
			// The peer moved this stream off a dead connection before we
			// acted on the failure ourselves. Our send side must follow
			// with the same SYNC + replay, or our unacknowledged records
			// die with the old connection.
			return s.follow(st, old, c)
		}
		// Detach from the old conn only if that conn is gone. A live old
		// conn can still have records for this stream in flight, and
		// detaching under them turns each one into a failed decrypt.
		// Trial decryption is per-conn, so a context attached to two live
		// conns is harmless.
		if hadOld && old != c && old.closed {
			old.demux.Detach(f.id)
		}
		s.attachRecv(st, c)
		st.conn = c.id
		return nil
	}
	if _, err := s.installStream(f.id, c.id); err != nil {
		return err
	}
	s.trace("stream_attached", c.id, f.id, 0, 0)
	s.emit(Event{Kind: EventStreamOpen, Stream: f.id, Conn: c.id})
	return nil
}

// attachRecv gives c's demux a receive context for st, unless it has one.
// It attaches an independent clone rather than the shared context: the
// old connection (when live) keeps its own sequence counter for late
// in-flight records, while the upcoming SYNC resets only this
// connection's clone to the replay's resume point. A single shared
// counter would make one side's arrivals unauthenticatable.
func (s *Session) attachRecv(st *stream, c *conn) {
	if c.demux.Context(st.id) == nil {
		nc := st.recvCtx.Clone(st.recvCtx.Seq())
		c.demux.Attach(nc)
		st.recvCtx = nc
	}
}

func (s *Session) handleStreamDetach(c *conn, f *frame) error {
	if _, ok := s.streams[f.id]; ok {
		c.demux.Detach(f.id)
	}
	return nil
}

// handleStreamFin records the peer's final sequence for a stream.
func (s *Session) handleStreamFin(c *conn, f *frame) error {
	st, err := s.getStream(f.id)
	if err != nil {
		return nil
	}
	st.peerFin = true
	st.peerFinalSeq = f.seq
	s.trace("stream_fin", c.id, f.id, f.seq, 0)
	// Final ack so the peer can drain its retransmit buffer.
	if s.cfg.EnableFailover && st.recvSinceAck > 0 {
		s.sendAck(c, st)
	}
	s.emit(Event{Kind: EventStreamFin, Stream: f.id, Conn: c.id})
	return nil
}

// handleAckRequest answers a peer's ACK solicitation with an immediate
// cumulative acknowledgment (lost-ACK recovery: the peer's send window
// is filling and cannot wait out our batching policy). Without failover no acks flow at all, so the request is
// ignored rather than answered inconsistently.
func (s *Session) handleAckRequest(c *conn, f *frame) error {
	st, err := s.getStream(f.id)
	if err != nil {
		return nil // requests may race stream teardown
	}
	s.trace("ack_requested", c.id, f.id, st.recvCtx.Seq(), 0)
	if s.cfg.EnableFailover {
		s.sendAck(c, st)
	}
	return nil
}

// Bounds on eBPF congestion-controller reassembly (§4.4): real CC
// bytecode is a few KiB, so a megabyte of program across a few
// thousand chunks is generous — and a forged header can no longer make
// a single record allocate unbounded reassembly state.
const (
	maxBPFProgLen = 1 << 20
	maxBPFChunks  = 4096
)

// handleBPFChunk reassembles an eBPF congestion-controller program.
// Header fields are validated against each other before any allocation:
// chunkCount and progLen come off the wire and sized buffers must never
// outrun what a legitimate sender could have produced.
func (s *Session) handleBPFChunk(c *conn, f *frame) error {
	count := int(f.chunkCount)
	switch {
	case count == 0 || count > maxBPFChunks:
		return ErrBadFrame
	case f.progLen > maxBPFProgLen:
		return ErrBadFrame
	case int(f.progLen) < count-1:
		// count chunks with all but the last non-empty need at least
		// count-1 bytes of program.
		return ErrBadFrame
	}
	if s.bpfChunks == nil || s.bpfTotal != count || s.bpfProgLen != f.progLen {
		s.bpfChunks = make([][]byte, count)
		s.bpfGot = 0
		s.bpfBytes = 0
		s.bpfTotal = count
		s.bpfProgLen = f.progLen
	}
	idx := int(f.chunkIdx)
	if idx >= s.bpfTotal {
		return ErrBadFrame
	}
	if s.bpfChunks[idx] == nil {
		if s.bpfBytes+len(f.chunk) > int(s.bpfProgLen) {
			// Chunks claim more bytes than the advertised program
			// length: drop the whole reassembly, not just this chunk.
			s.bpfChunks = nil
			return ErrBadFrame
		}
		s.bpfChunks[idx] = append([]byte(nil), f.chunk...)
		s.bpfGot++
		s.bpfBytes += len(f.chunk)
	}
	if s.bpfGot < s.bpfTotal {
		return nil
	}
	var prog []byte
	for _, ch := range s.bpfChunks {
		prog = append(prog, ch...)
	}
	s.bpfChunks = nil
	if len(prog) != int(s.bpfProgLen) {
		return ErrBadFrame
	}
	s.emit(Event{Kind: EventBPFCC, Conn: c.id, Data: prog})
	return nil
}
