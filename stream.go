package tcpls

import (
	"context"
	"io"
)

// Stream is one multiplexed TCPLS byte stream. Reads and writes are safe
// for concurrent use; a stream implements io.ReadWriteCloser.
type Stream struct {
	sess *Session
	id   uint32
}

// ID returns the stream's TCPLS stream identifier.
func (st *Stream) ID() uint32 { return st.id }

// Conn returns the engine ID of the TCP connection the stream is
// attached to.
func (st *Stream) Conn() (uint32, error) {
	st.sess.mu.Lock()
	defer st.sess.mu.Unlock()
	return st.sess.engine.StreamConn(st.id)
}

// Write queues p on the stream and transmits it. It blocks only on TCP
// backpressure and, with failover, the send window; never on the peer's
// application.
func (st *Stream) Write(p []byte) (int, error) {
	s := st.sess
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.awaitSendRoomLocked(st.id, false, len(p)) {
		return 0, s.closedErrLocked()
	}
	n, err := s.engine.Write(st.id, p)
	s.drv.Flush() // on an error too: what was sealed before it must go out
	return n, err
}

// Read blocks until stream data is available, the peer finishes the
// stream (io.EOF after the data drains), or the session closes.
func (st *Stream) Read(p []byte) (int, error) {
	s := st.sess
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if n := s.engine.Readable(st.id); n > 0 {
			rn, err := s.engine.Read(st.id, p)
			// Draining may clear receive backpressure; wake any readLoop
			// parked on RecvPaused.
			s.cond.Broadcast()
			return rn, err
		}
		if s.engine.PeerFinished(st.id) {
			return 0, io.EOF
		}
		if s.closed {
			return 0, s.closedErrLocked()
		}
		s.cond.Wait()
	}
}

// Close finishes the local send side of the stream (the peer sees EOF
// after draining). The receive side keeps working.
func (st *Stream) Close() error {
	s := st.sess
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.engine.FinishStream(st.id)
	s.drv.Flush()
	return err
}

// OpenStream opens a stream on the initial connection.
func (s *Session) OpenStream() (*Stream, error) { return s.OpenStreamOn(0) }

// OpenStreamOn opens a stream attached to a specific connection —
// stream steering at creation time (§3.3.3).
func (s *Session) OpenStreamOn(conn uint32) (*Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.closedErrLocked()
	}
	id, err := s.engine.CreateStream(conn)
	if err != nil {
		return nil, err
	}
	st := &Stream{sess: s, id: id}
	s.streams[id] = st
	s.drv.Flush()
	return st, nil
}

// AcceptStream blocks until the peer opens a stream.
func (s *Session) AcceptStream(ctx context.Context) (*Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.acceptQ) == 0 {
		if s.closed {
			return nil, s.closedErrLocked()
		}
		if err := s.waitLocked(ctx); err != nil {
			return nil, err
		}
	}
	st := s.acceptQ[0]
	s.acceptQ = s.acceptQ[1:]
	return st, nil
}

// Couple flags streams as members of the session's coupled group: their
// records carry aggregation sequence numbers, WriteCoupled spreads data
// across them (and so across their connections), and ReadCoupled
// delivers the aggregate in order (§3.3.3).
func (s *Session) Couple(streams ...*Stream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range streams {
		if err := s.engine.SetCoupled(st.id, true); err != nil {
			return err
		}
	}
	return nil
}

// WriteCoupled queues p on the coupled group, spreading records across
// the coupled streams via the session's scheduler.
func (s *Session) WriteCoupled(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.awaitSendRoomLocked(0, true, len(p)) {
		return 0, s.closedErrLocked()
	}
	n, err := s.engine.WriteCoupled(p)
	s.drv.Flush() // on an error too: what was sealed before it must go out
	return n, err
}

// ReadCoupled blocks until coupled-group data is deliverable in order.
func (s *Session) ReadCoupled(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.engine.CoupledReadable() > 0 {
			n := s.engine.ReadCoupled(p)
			// Draining may clear receive backpressure; wake any readLoop
			// parked on RecvPaused.
			s.cond.Broadcast()
			return n, nil
		}
		if s.closed {
			return 0, s.closedErrLocked()
		}
		s.cond.Wait()
	}
}

// CoupledInUse reports whether the peer (or this side) has coupled
// streams active on the session — receivers switch to ReadCoupled.
func (s *Session) CoupledInUse() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.CoupledActive() || s.engine.CoupledReadable() > 0
}

// SetScheduler installs an application-defined coupled-stream record
// scheduler (§3.3.3): called once per record with the coupled stream IDs,
// it returns the index of the stream to carry that record.
//
// Contract: the returned index must be in [0, len(streams)). An
// out-of-range index is not honoured — the engine emits a sched_invalid
// trace event and falls back to the first coupled stream, so a buggy
// scheduler degrades to pinned scheduling rather than dropping data.
// For metrics-aware policies (lowest-RTT, rate-weighted, redundant) use
// SetPathScheduler instead; passing nil here restores the default
// round-robin.
func (s *Session) SetScheduler(fn func(recordIdx uint64, streams []uint32) int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine.SetScheduler(fn)
}
