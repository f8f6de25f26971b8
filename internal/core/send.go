package core

import (
	"sort"
	"time"

	"tcpls/internal/record"
	"tcpls/internal/sched"
	"tcpls/internal/wire"
)

// Scheduler is the legacy closure form of the coupled-record scheduler:
// called once per record with the coupled streams' IDs and the running
// record index, it returns an index into streams. This is the paper's
// application-exposed sender-side record scheduler (§3.3.3). New code
// should implement sched.Scheduler and install it with
// SetPathScheduler; closures are adapted via sched.Func.
type Scheduler func(recordIdx uint64, streams []uint32) int

// SetScheduler replaces the coupled-stream scheduler with a legacy
// closure (adapted onto the stateful scheduler interface).
//
// Contract: the closure must return an index in [0, len(streams)). An
// out-of-range index is NOT honoured — the engine emits a
// sched_invalid trace event and falls back to the first coupled
// stream, so a buggy scheduler degrades to pinned rather than
// crashing. nil restores the default round-robin.
func (s *Session) SetScheduler(fn Scheduler) {
	s.telPicks = nil
	if fn == nil {
		s.pathSched = nil
		return
	}
	s.pathSched = sched.Func(fn)
}

// SetPathScheduler installs a stateful path scheduler (§3.3.3). The
// engine serializes all scheduler calls; one scheduler instance must
// not be shared across sessions. nil restores the default round-robin.
func (s *Session) SetPathScheduler(ps sched.Scheduler) {
	s.pathSched = ps
	s.telPicks = nil // re-resolve the per-policy pick counter lazily
}

func (s *Session) scheduler() sched.Scheduler {
	if s.pathSched == nil {
		s.pathSched = sched.RoundRobin()
	}
	if s.tel != nil && s.telPicks == nil {
		s.telPicks = s.tel.SchedPicks(s.pathSched.Name())
	}
	return s.pathSched
}

// Flush frames all queued application data into encrypted records on
// their connections' output buffers. Call before draining Outgoing.
//
// Each queue is cut into record-sized views of its backing array — no
// copies — and every view sealed straight into its connection's output
// chunk, where a retained record stays (DESIGN.md §16). Only a sealed
// record's span of the queue is consumed, so an error leaves unsealed
// bytes queued.
func (s *Session) Flush() error {
	s.stampSendTrace()
	// Coupled group first: distribute records across coupled streams.
	if err := s.flushCoupled(); err != nil {
		return err
	}
	// Then per-stream queues, in stream-ID order for determinism.
	for _, id := range s.sortedStreamIDs() {
		st := s.streams[id]
		if err := s.flushStream(st); err != nil {
			return err
		}
	}
	return nil
}

// stampSendTrace dates the send-path trace events that follow: they
// happen now, not at the last receive.
func (s *Session) stampSendTrace() {
	if s.tracer != nil {
		s.lastNow = s.now()
	}
}

func (s *Session) sortedStreamIDs() []uint32 {
	if len(s.idCache) != len(s.streams) {
		s.idCache = s.idCache[:0]
		for id := range s.streams {
			s.idCache = append(s.idCache, id)
		}
		sort.Slice(s.idCache, func(i, j int) bool { return s.idCache[i] < s.idCache[j] })
	}
	return s.idCache
}

// sealJob is one record about to be sealed. payload views the owning
// queue's array or the caller's Write slice.
type sealJob struct {
	st      *stream
	payload []byte
	coupled bool
	aggSeq  uint64
	off     uint64 // where the record starts in its send window
	enqAt   time.Time
}

// sealOne seals one record onto its stream's connection and, when
// failover is enabled, retains the sealed record where it lies, in the
// output chunk, for replay (retain.go).
func (s *Session) sealOne(j sealJob) error {
	st := j.st
	c, err := s.getConn(st.conn)
	if err != nil {
		return err
	}
	if c.failed {
		return ErrConnFailed
	}
	// Scatter-gather seal: payload plus the TCPLS trailer go straight
	// into the connection buffer — the zero-copy send path of §3.1.
	typ := typeStreamData
	var trailer [9]byte
	tlen := 1
	if j.coupled {
		typ = typeStreamDataCoupled
		wire.PutUint64(trailer[:8], j.aggSeq)
		trailer[8] = byte(typeStreamDataCoupled)
		tlen = 9
	} else {
		trailer[0] = byte(typeStreamData)
	}
	seq := st.sendCtx.Seq()
	ch := c.room()
	start := len(ch.b)
	out, err := st.sendCtx.SealV(ch.b, record.ContentTypeApplicationData, s.cfg.PadRecordsTo, j.payload, trailer[:tlen])
	if err != nil {
		return err
	}
	ch.b = out
	s.stats.RecordsSent++
	s.stats.BytesSent += uint64(len(j.payload))
	s.trace("record_sent", c.id, st.id, seq, len(j.payload))
	if s.tel != nil {
		c.tel.RecordsSent.Inc()
		c.tel.BytesSent.Add(uint64(len(j.payload)))
		st.tel.BytesSent.Add(uint64(len(j.payload)))
		s.tel.RecordSize.Observe(float64(len(j.payload)))
	}
	if s.pathSched != nil {
		s.pathSched.OnSent(c.id, len(j.payload))
	}
	if !s.cfg.EnableFailover {
		return nil
	}
	st.retransmit = append(st.retransmit, sentRecord{
		seq:      seq,
		typ:      typ,
		size:     len(j.payload),
		off:      j.off,
		aggSeq:   j.aggSeq,
		sentAt:   s.now(), // seal leg + ACK-driven RTT sampling
		enqAt:    j.enqAt,
		origConn: c.id,
	})
	ch.keep(&st.retransmit[len(st.retransmit)-1], st.id, out[start:])
	if s.metrics != nil {
		// Count the bytes into flight; handleAck reverses this.
		s.metrics.OnSent(c.id, len(j.payload))
	}
	st.retransmitBytes += len(j.payload)
	s.noteRetransmitBytes(len(j.payload))
	return nil
}

// solicitAck sends one AckRequest for st on its connection (§4.2's ctl
// path): a sender whose send window is filling asks for a fresh
// cumulative ack instead of waiting out the receiver's batching policy
// (or a lost ack). At most one request is in flight per stream; any ack
// on the stream answers it and re-arms it.
func (s *Session) solicitAck(st *stream) {
	if st.ackSolicited || !s.cfg.EnableFailover {
		return
	}
	c, ok := s.conns[st.conn]
	if !ok || c.failed || c.closed {
		return
	}
	s.ctlScratch = appendAckRequest(s.ctlScratch[:0], st.id)
	if s.sendCtl(c, s.ctlScratch) != nil {
		return
	}
	st.ackSolicited = true
	s.trace("ack_solicited", c.id, st.id, st.peerAcked, st.retransmitBytes)
	if s.tel != nil {
		s.tel.AckSolicits.Inc()
	}
}

// sendWindow is a send window (Config.MaxRetransmitBytes): a plain
// stream's, or the coupled group's. off sums the charges sealed into it
// and each retained record keeps the offset it starts at, so the window
// holds off minus its oldest unacknowledged record's offset. No wire
// field carries it. parked marks a seal that found it full: one
// flowctl_limit trace per excursion.
type sendWindow struct {
	off    uint64
	parked bool
}

// windowSpan is a window as one sealing pass sees it (acks arrive only
// between passes): base is the oldest unacknowledged record's offset, or
// the window's own when it retains none, and pin the stream holding that
// record, whose acknowledgment moves the window.
type windowSpan struct {
	w    *sendWindow
	base uint64
	pin  *stream
}

// include lowers sp's base to st's oldest retained record of type typ
// (retransmit is in seal order).
func (sp *windowSpan) include(st *stream, typ recordType) {
	for i := range st.retransmit {
		if r := &st.retransmit[i]; r.typ == typ {
			if r.off < sp.base {
				sp.base, sp.pin = r.off, st
			}
			return
		}
	}
}

// full reports whether a record of n payload bytes would carry the
// window past Config.MaxRetransmitBytes; an empty window takes any
// record. At the window sealing parks: a flowctl_limit trace on the way
// in, and an AckRequest on the stream whose ack moves the window.
func (s *Session) full(sp *windowSpan, n int) bool {
	win, used := uint64(s.cfg.window()), sp.w.off-sp.base
	if win == 0 || used == 0 || used+s.cfg.charge(n) <= win {
		sp.w.parked = false
		return false
	}
	if !sp.w.parked {
		sp.w.parked = true
		s.trace("flowctl_limit", sp.pin.conn, sp.pin.id, flowctlWindow, int(used))
		if s.tel != nil {
			s.tel.FlowctlLimits.Inc()
		}
	}
	s.solicitAck(sp.pin)
	return true
}

// sealed moves the window past a record of n payload bytes just sealed
// onto st, and from half the window on asks st's peer for an ack.
func (s *Session) sealed(sp *windowSpan, st *stream, n int) {
	if sp.pin == nil {
		sp.pin = st
	}
	sp.w.off += s.cfg.charge(n)
	if win := uint64(s.cfg.window()); win > 0 && 2*(sp.w.off-sp.base) >= win {
		s.solicitAck(st)
	}
}

// sealStream cuts q — the stream's pending queue, or whole records of
// a Write still in the caller's slice — into records, seals them and
// returns how many leading bytes of q went out. A stream on a failed
// connection is parked, not an error, until failover or the recovery
// supervisor re-homes it; one at its send window parks the rest (with
// an ACK solicitation) until acknowledgments move the window.
func (s *Session) sealStream(st *stream, q []byte) (int, error) {
	if c, ok := s.conns[st.conn]; ok && (c.failed || c.closed) {
		return 0, nil
	}
	max := s.cfg.maxPayload()
	sp := windowSpan{w: &st.win, base: st.win.off}
	sp.include(st, typeStreamData)
	off := 0
	for off < len(q) {
		n := min(len(q)-off, max)
		if s.full(&sp, n) {
			break
		}
		if err := s.sealOne(sealJob{st: st, payload: q[off : off+n], off: sp.w.off, enqAt: st.pendingSince}); err != nil {
			return off, err
		}
		s.sealed(&sp, st, n)
		off += n
	}
	return off, nil
}

// flushStream seals one stream's pending bytes, then its FIN once
// nothing is left ahead of it.
func (s *Session) flushStream(st *stream) error {
	if st.pendingQ.Len() > 0 {
		consumed, err := s.sealStream(st, st.pendingQ.Bytes())
		st.pendingQ.Advance(consumed)
		if err != nil {
			return err
		}
	}
	if c, ok := s.conns[st.conn]; ok && (c.failed || c.closed) || st.pendingQ.Len() > 0 {
		return nil // dead connection, or parked at the window: the FIN waits behind the data
	}
	// A coupled stream's unsealed bytes live in the shared coupled
	// queue, not st.pendingQ: its FIN must wait for the whole group to
	// drain. Sending it earlier marks the stream finSent, which removes
	// it from coupledStreams() and strands the group's remaining bytes
	// with no stream left to seal them onto.
	if st.coupled && s.coupled.pendingQ.Len() > 0 {
		return nil
	}
	if st.finQueued && !st.finSent {
		c, err := s.getConn(st.conn)
		if err != nil {
			return err
		}
		s.ctlScratch = appendStreamFin(s.ctlScratch[:0], st.id, st.sendCtx.Seq())
		if err := s.sendCtl(c, s.ctlScratch); err != nil {
			return err
		}
		st.finSent = true
	}
	return nil
}

// flushCoupled seals the coupled group's pending bytes.
func (s *Session) flushCoupled() error {
	if s.coupled.pendingQ.Len() == 0 {
		return nil
	}
	consumed, err := s.sealCoupled(s.coupled.pendingQ.Bytes())
	s.coupled.pendingQ.Advance(consumed)
	return err
}

// sealCoupled distributes q — the group's pending queue, or whole
// records of a WriteCoupled still in the caller's slice — across the
// coupled streams, a record at a time, via the path scheduler, and
// returns how many leading bytes went out. The scheduler sees one
// PathView per stream, refreshed once per call (metrics move on
// ack/kernel timescales, not per record).
func (s *Session) sealCoupled(q []byte) (int, error) {
	cs := s.coupledStreams()
	if len(cs) == 0 {
		return 0, ErrNotCoupled
	}
	// Schedule only over streams whose connections are alive; with no
	// live path the group's bytes park until recovery re-homes a stream.
	live := cs[:0]
	for _, st := range cs {
		if c, ok := s.conns[st.conn]; ok && !c.failed && !c.closed {
			live = append(live, st)
		}
	}
	cs = live
	if len(cs) == 0 {
		return 0, nil
	}
	views := make([]sched.PathView, len(cs))
	for i, st := range cs {
		views[i] = sched.PathView{Stream: st.id, Conn: st.conn}
		if s.metrics != nil {
			s.metrics.Fill(&views[i])
		}
	}
	max := s.cfg.maxPayload()
	ps := s.scheduler()
	// The group's oldest record may sit on any stream: a parked one, or
	// one already finished.
	sp := windowSpan{w: &s.coupled.win, base: s.coupled.win.off}
	for _, id := range s.sortedStreamIDs() {
		sp.include(s.streams[id], typeStreamDataCoupled)
	}
	off := 0
	for off < len(q) {
		n := min(len(q)-off, max)
		if s.full(&sp, n) {
			break
		}
		job := sealJob{payload: q[off : off+n], coupled: true, aggSeq: s.coupled.sendSeq, off: sp.w.off, enqAt: s.coupled.pendingSince}
		idx := ps.Pick(s.coupled.sendSeq, views)
		picked := cs
		if idx != sched.PickAll {
			if idx < 0 || idx >= len(cs) {
				// Out-of-range pick: surface it (Bytes carries the bad
				// index) instead of clamping silently, then fall back
				// to the first coupled stream per the SetScheduler
				// contract.
				s.trace("sched_invalid", 0, 0, s.coupled.sendSeq, idx)
				if s.tel != nil {
					s.tel.SchedInvalid.Inc()
				}
				idx = 0
			}
			picked = cs[idx : idx+1]
		}
		// Redundant scheduling (PickAll) sends the same aggregation
		// sequence on every path, each replica retained in its own path's
		// chunk; the receiver's reorder buffer keeps exactly one copy, and
		// the window counts the sequence once.
		s.coupled.sendSeq++
		for _, st := range picked {
			s.trace("sched_pick", st.conn, st.id, job.aggSeq, n)
			s.telPicks.Inc()
			job.st = st
			if err := s.sealOne(job); err != nil {
				return off, err
			}
		}
		s.sealed(&sp, picked[0], n)
		off += n
	}
	return off, nil
}

// SendTCPOption ships an encrypted TCP option on connID's control stream
// (§3.1): reliable, unconstrained by the 40-byte TCP option space, and
// invisible to middleboxes.
func (s *Session) SendTCPOption(connID uint32, kind uint8, value []byte) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	return s.sendCtl(c, appendTCPOption(nil, kind, value))
}

// SendAddAddr advertises a local address to the peer mid-session.
func (s *Session) SendAddAddr(connID uint32, addr []byte) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	return s.sendCtl(c, appendAddr(nil, typeAddAddr, addr))
}

// SendRemoveAddr withdraws a previously advertised address.
func (s *Session) SendRemoveAddr(connID uint32, addr []byte) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	return s.sendCtl(c, appendAddr(nil, typeRemoveAddr, addr))
}

// SendNewCookies replenishes the peer's join-cookie budget (server side).
func (s *Session) SendNewCookies(connID uint32, cookies [][16]byte) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	return s.sendCtl(c, appendNewCookie(nil, cookies))
}

// SendEcho sends a path probe on connID; the peer echoes Token back
// (§3.3.3's active delay measurement).
func (s *Session) SendEcho(connID uint32, token uint64) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	return s.sendCtl(c, appendEcho(nil, typeEchoRequest, token))
}

// SendBPFCC ships an eBPF congestion-controller program over connID,
// chunked across records when needed (§4.4).
func (s *Session) SendBPFCC(connID uint32, program []byte) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	max := s.cfg.maxPayload()
	chunks := (len(program) + max - 1) / max
	if chunks == 0 {
		chunks = 1
	}
	for i := 0; i < chunks; i++ {
		lo, hi := i*max, (i+1)*max
		if hi > len(program) {
			hi = len(program)
		}
		content := appendBPFCC(nil, program[lo:hi], uint16(i), uint16(chunks), uint32(len(program)))
		if err := s.sendCtl(c, content); err != nil {
			return err
		}
	}
	return nil
}

// SendSessionTicket ships a resumption ticket to the peer (§4.5).
// maxEarly advertises the 0-RTT budget honoured when the ticket is
// presented (0 = no early data).
func (s *Session) SendSessionTicket(connID uint32, nonce [16]byte, ticket []byte, maxEarly uint32) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	return s.sendCtl(c, appendSessionTicket(nil, nonce, ticket, maxEarly))
}

// CloseConnection sends an orderly connection close.
func (s *Session) CloseConnection(connID uint32) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	if err := s.sendCtl(c, appendConnClose(nil)); err != nil {
		return err
	}
	c.closed = true
	s.telSyncGauges()
	return nil
}
