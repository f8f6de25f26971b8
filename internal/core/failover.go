package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Advance drives the engine's timers. With a UserTimeout configured
// (§4.2), a connection that has been silent for longer than the timeout
// while it still has active streams is declared failed — the encrypted
// TCP User Timeout option's break-before-make trigger. It returns the
// IDs of connections that failed during this call.
//
// Connections are examined in ascending ID order so that the failure
// events, traces, and any failover reaction they trigger replay
// identically run after run — the deterministic-replay contract the
// fleet harness (internal/fleet) builds its seed reproducibility on.
func (s *Session) Advance(now time.Time) []uint32 {
	if s.cfg.UserTimeout <= 0 {
		return nil
	}
	ids := make([]uint32, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var failed []uint32
	for _, id := range ids {
		c := s.conns[id]
		if c.failed || c.closed || !s.connActive(id) || now.Sub(c.lastRecv) <= s.cfg.UserTimeout {
			continue
		}
		s.setNow(now)
		s.failConn(c)
		failed = append(failed, id)
	}
	// A sender parked at its send window sends nothing, so its healthy
	// paths would fall silent beside the one that holds the window: each
	// tick, a parked window solicits an ack on every stream it spans, and
	// only the path that loses them times out.
	for _, id := range s.sortedStreamIDs() {
		if st := s.streams[id]; s.parked(st) {
			st.ackSolicited = false
			s.solicitAck(st)
		}
	}
	return failed
}

// connActive reports whether any unfinished stream is attached to conn,
// i.e. whether silence on it is meaningful.
func (s *Session) connActive(connID uint32) bool {
	for _, st := range s.streams {
		if st.conn != connID {
			continue
		}
		if !st.finSent || !st.peerFin || len(st.retransmit) > 0 {
			return true
		}
	}
	return false
}

// ReportConnFailed lets the I/O wrapper report an explicit TCP-level
// failure (RST, FIN, read error) — the fast failover trigger of Fig. 8.
func (s *Session) ReportConnFailed(connID uint32) error {
	c, err := s.getConn(connID)
	if err != nil {
		return err
	}
	if !c.failed {
		s.setNow(s.now()) // wrapper-reported failure happens in real time
		s.failConn(c)
	}
	return nil
}

// ConnFailed reports whether connID has been declared failed.
func (s *Session) ConnFailed(connID uint32) bool {
	c, ok := s.conns[connID]
	return ok && c.failed
}

// failConn declares c failed: the conn_failed trace, the counters and
// EventConnFailed. If c had carried the failover of earlier connections,
// their notices (and, on the client, their replays) may have died with
// it: that is a cascade, and they are unsettled again so the next
// Failover re-homes them along with c.
func (s *Session) failConn(c *conn) {
	c.failed = true
	s.trace("conn_failed", c.id, 0, 0, 0)
	cascade := false
	for _, o := range s.conns {
		if o.failedOver && o.via == c.id && o != c {
			o.failedOver = false
			cascade = true
		}
	}
	if cascade {
		s.trace("failover_cascade", c.id, 0, 0, 0)
	}
	s.counts.ConnFailures++
	if cascade {
		s.counts.FailoverCascades++
	}
	s.emit(Event{Kind: EventConnFailed, Conn: c.id})
}

// Failover applies the failover policy (DESIGN.md §8) to every connection
// declared failed and not yet settled. Drivers call it after each batch
// of engine input and after adding a connection; it costs one pass over
// the connections when there is nothing to do, and does nothing without
// EnableFailover.
//
// Only the client chooses (§4.2, and QUIC's rule for migration): two
// sides picking targets independently cross their STREAM_ATTACHes. The
// client moves every parked connection onto the best live one in ONE
// merged replay, and sends a FAILOVER notice for each even when none of
// its streams was there, so the server re-homes what only it knows of
// (handleFailoverNotice). The server notifies the client, once per failed
// connection, and parks until the client's notice comes back. With no
// live connection both sides park; the next added connection resumes.
func (s *Session) Failover() {
	if !s.cfg.EnableFailover {
		return
	}
	parked := s.parkedConns()
	if len(parked) == 0 {
		return
	}
	if s.role == RoleServer {
		for _, c := range parked {
			s.notifyConnFailed(c)
		}
		return
	}
	target := s.failoverTarget()
	if target == nil {
		return
	}
	if err := s.failoverInto(parked, target); err != nil {
		s.trace("failover_error", target.id, 0, 0, 0)
	}
}

// parkedConns lists the failed connections whose failover is not settled,
// in ID order so the resume replays identically run after run.
func (s *Session) parkedConns() []*conn {
	var out []*conn
	for _, c := range s.conns {
		if c.failed && !c.failedOver {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b *conn) int { return cmp.Compare(a.id, b.id) })
	return out
}

// failoverTarget is the client's choice among live connections: the
// lowest smoothed RTT in the metrics store; connections without an RTT
// sample rank after measured ones, and ties go to the lowest ID — so
// with no store installed it is simply the lowest live ID. nil when no
// connection is live.
func (s *Session) failoverTarget() *conn {
	var best *conn
	var bestRTT time.Duration
	bestHas := false
	for id, c := range s.conns {
		if c.failed || c.closed {
			continue
		}
		var rtt time.Duration
		has := false
		if s.metrics != nil {
			if ps, ok := s.metrics.Snapshot(id); ok && ps.HasRTT {
				rtt, has = ps.SRTT, true
			}
		}
		if best == nil || has && !bestHas ||
			has == bestHas && (rtt < bestRTT || rtt == bestRTT && id < best.id) {
			best, bestRTT, bestHas = c, rtt, has
		}
	}
	return best
}

// notifyConnFailed tells the client that failed is dead, on the lowest
// live connection — Fig. 4 step 2, the server's half of failover. With
// no live connection it stays unsettled for the next Failover.
func (s *Session) notifyConnFailed(failed *conn) {
	var via *conn
	for id, c := range s.conns {
		if !c.failed && !c.closed && (via == nil || id < via.id) {
			via = c
		}
	}
	if via == nil {
		return
	}
	s.trace("failover_notified", via.id, 0, uint64(failed.id), 0)
	if s.sendCtl(via, appendFailover(nil, failed.id)) == nil {
		failed.failedOver, failed.via = true, via.id
	}
}

// FailoverTo resynchronizes and retransmits all streams of failedID onto
// targetID (Fig. 4): it notifies the peer, re-attaches each stream,
// sends a SYNC with the resume sequence, and replays every
// unacknowledged record — byte-identical ciphertext, since per-stream
// contexts make the sequence numbers deterministic. It is the
// application's migration call; failures go through Failover.
//
// A connection can be failed over at most once: its streams move away
// and a second call has nothing to resynchronize, so it returns
// ErrConnFailed rather than re-notifying the peer with stale state.
// Failing over onto a target that is itself failed or closed also
// returns ErrConnFailed and leaves the streams where they are.
func (s *Session) FailoverTo(failedID, targetID uint32) error {
	if !s.cfg.EnableFailover {
		return fmt.Errorf("core: failover not enabled in config")
	}
	failedConn, err := s.getConn(failedID)
	if err != nil {
		return err
	}
	if failedConn.failedOver {
		return ErrConnFailed
	}
	target, err := s.getConn(targetID)
	if err != nil {
		return err
	}
	if target.failed || target.closed || targetID == failedID {
		return ErrConnFailed
	}
	return s.failoverInto([]*conn{failedConn}, target)
}

// failoverInto re-homes the streams of all failed conns onto target:
// per conn a FAILOVER notice, per stream ATTACH + SYNC, then ONE merged
// replay of every unacknowledged record. Merging matters when several
// conns died before a replacement joined (a rack outage, an RST storm):
// replayed conn by conn, coupled records' aggregation sequences
// interleave across the conns, and the receiver's reorder heap parks
// about half of the first conn's replay until the second's arrives, up
// to a whole window. replayMerged orders the records globally by
// aggregation sequence and keeps the heap flat. One EventFailoverDone goes out per conn whose
// streams moved; a conn with none of ours gets the notice alone.
func (s *Session) failoverInto(failed []*conn, target *conn) error {
	if s.tracer != nil {
		s.setNow(s.now()) // sync/retransmit traces happen now
	}
	var moves []streamReplay
	moved := 0
	for _, fc := range failed {
		fc.failed, fc.failedOver, fc.via = true, true, target.id
		if err := s.sendCtl(target, appendFailover(nil, fc.id)); err != nil {
			return err
		}
		first := len(moves)
		for _, id := range s.sortedStreamIDs() {
			st := s.streams[id]
			if st.conn != fc.id {
				continue
			}
			// Give the target a receive context so the peer's records for
			// this stream (it fails over too) authenticate there. As in
			// handleStreamAttach, the failed conn keeps its own unless it
			// is gone: an application's Failover moves streams off a live
			// conn, whose in-flight records would otherwise each fail to
			// decrypt.
			if fc.closed {
				fc.demux.Detach(st.id)
			}
			s.attachRecv(st, target)
			if err := s.failoverStreamPrep(st, target); err != nil {
				return err
			}
			moves = append(moves, streamReplay{st: st, from: fc.id})
		}
		if len(moves) == first {
			// The notice alone tells the server where to re-home what it
			// still has there.
			s.trace("failover_notified", target.id, 0, uint64(fc.id), 0)
			continue
		}
		moved++
		s.trace("failover_started", fc.id, 0, 0, 0)
		s.counts.Failovers++
	}
	if err := s.replayMerged(moves, target); err != nil {
		return err
	}
	for ; moved > 0; moved-- {
		s.emit(Event{Kind: EventFailoverDone, Conn: target.id})
	}
	return nil
}

// streamReplay pairs a stream being re-homed with the connection it is
// leaving, for loss accounting during replay.
type streamReplay struct {
	st   *stream
	from uint32
}

// failoverStreamPrep moves one stream's send side onto target and tells
// the peer: re-attach, then SYNC with the resume sequence. The record
// replay itself is replayMerged's job.
func (s *Session) failoverStreamPrep(st *stream, target *conn) error {
	st.conn = target.id
	if err := s.sendCtl(target, appendStreamAttach(nil, st.id)); err != nil {
		return err
	}
	resume := st.sendCtx.Seq()
	if len(st.retransmit) > 0 {
		resume = st.retransmit[0].seq
	}
	if err := s.sendCtl(target, appendSync(nil, st.id, resume)); err != nil {
		return err
	}
	s.trace("sync_sent", target.id, st.id, resume, 0)
	return nil
}

// replayMerged replays every unacknowledged record of the given streams
// onto target in one globally ordered pass: coupled records merge across
// streams in aggregation-sequence order (each stream's own sequence
// order is preserved, since aggSeq is monotonic within a stream), plain
// records keep per-stream order. Ordering the wire replay by aggSeq is
// what keeps the receiver's reorder heap flat when several streams —
// possibly stranded on several failed conns — resynchronize onto one
// target. Closes by re-announcing possibly-lost FINs.
func (s *Session) replayMerged(moves []streamReplay, target *conn) error {
	type ref struct{ mi, ri int }
	var refs []ref
	for mi := range moves {
		for ri := range moves[mi].st.retransmit {
			refs = append(refs, ref{mi, ri})
		}
	}
	sort.SliceStable(refs, func(a, b int) bool {
		ra := &moves[refs[a].mi].st.retransmit[refs[a].ri]
		rb := &moves[refs[b].mi].st.retransmit[refs[b].ri]
		ca := ra.typ == typeStreamDataCoupled
		cb := rb.typ == typeStreamDataCoupled
		if ca != cb {
			return !ca // plain records first, in their stable stream order
		}
		if ca {
			return ra.aggSeq < rb.aggSeq
		}
		return false
	})
	for _, rf := range refs {
		mv := &moves[rf.mi]
		s.replayRecord(mv.st, &mv.st.retransmit[rf.ri], mv.from, target)
	}
	// Re-send FIN markers that may have been lost with the connections.
	for _, mv := range moves {
		if mv.st.finSent {
			if err := s.sendCtl(target, appendStreamFin(nil, mv.st.id, mv.st.sendCtx.Seq())); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayRecord resends one retained record onto target as it was sealed
// — per-stream contexts make the sequence number, and so the ciphertext,
// deterministic — homes it in target's chunk, and books the loss/resend
// against path metrics.
func (s *Session) replayRecord(st *stream, r *sentRecord, fromID uint32, target *conn) {
	ch := target.room()
	start := len(ch.b)
	ch.b = append(ch.b, r.wire...)
	s.drop(r)
	ch.keep(r, st.id, ch.b[start:])
	target.stats.Retransmits++
	target.stats.RecordsSent++
	s.trace("retransmit", target.id, st.id, r.seq, r.size)
	// Path metrics: the bytes were lost on the failed path and are in
	// flight again on the target; the replayed copy is barred from RTT
	// sampling (Karn). Its write stamp, from the target's chunk,
	// overwrites the failed original's.
	r.retxCount++
	if s.metrics != nil {
		s.metrics.OnLost(fromID, r.size)
		s.metrics.OnSent(target.id, r.size)
	}
}

// handleSync resynchronizes a stream's receive context after the peer's
// failover: the next record of stream f.id on this connection carries
// sequence f.seq. Records below nextDeliverSeq will be decrypted and
// discarded by the duplicate filter.
func (s *Session) handleSync(c *conn, f *frame) error {
	st, err := s.getStream(f.id)
	if err != nil {
		return err
	}
	// The stream should already be attached here by the preceding
	// STREAM_ATTACH; tolerate reordering of control frames by attaching
	// now if needed. As in handleStreamAttach, only detach from a dead
	// old conn — a live one may still carry records for this stream.
	if ctx := c.demux.Context(f.id); ctx == nil {
		if old, ok := s.conns[st.conn]; ok && (old.failed || old.closed) {
			old.demux.Detach(f.id)
		}
		// Clone, as in handleStreamAttach: a live old conn keeps its own
		// counter for late in-flight records; only this connection's
		// context resumes at the SYNC point.
		nc := st.recvCtx.Clone(f.seq)
		c.demux.Attach(nc)
		st.recvCtx = nc
		st.conn = c.id
	} else {
		// Normal ATTACH-then-SYNC order: the clone for this connection is
		// already attached — resynchronize it directly (it is not
		// necessarily st.recvCtx if yet another re-home crossed this one).
		ctx.SetSeq(f.seq)
	}
	s.trace("sync_received", c.id, f.id, f.seq, 0)
	return nil
}

// handleFailoverNotice processes the peer's explicit failure
// notification for one of our connections (shortens reaction time,
// Fig. 4 step 2). On the server it is also the client's choice of
// target: whatever is still homed on the failed connection follows onto
// c, the connection the notice arrived on — including streams whose
// first records died there, which the client never learned of and so
// could never ATTACH.
func (s *Session) handleFailoverNotice(c *conn, f *frame) error {
	failed, ok := s.conns[f.id]
	if !ok {
		return nil
	}
	if !failed.failed {
		s.failConn(failed)
	}
	if s.role != RoleServer || !s.cfg.EnableFailover || c.failed || c.closed {
		return nil
	}
	failed.failedOver, failed.via = true, c.id
	for _, id := range s.sortedStreamIDs() {
		if st := s.streams[id]; st.conn == failed.id {
			if err := s.follow(st, failed, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// follow re-homes st from the dead connection old onto c, where the
// client has moved it: the receive side moves (attachRecv), ATTACH + SYNC
// go out now, and the record replay is deferred to the end of the
// Receive batch so replays of sibling streams merge in aggregation-
// sequence order (flushPendingReplay).
func (s *Session) follow(st *stream, old, c *conn) error {
	old.demux.Detach(st.id)
	s.attachRecv(st, c)
	if err := s.failoverStreamPrep(st, c); err != nil {
		return err
	}
	s.pendingReplay = append(s.pendingReplay, streamReplay{st: st, from: old.id})
	return nil
}
