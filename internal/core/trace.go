package core

import (
	"time"

	"tcpls/internal/telemetry"
)

// TraceEvent is one protocol-level occurrence for offline analysis — the
// moral equivalent of the paper artifact's QLOG/QVIS support: every
// record sent and received, every acknowledgment, and every failover
// action, with enough identifiers to reconstruct per-stream timelines.
// The event names, what Seq and Bytes carry for each, and the span
// fields of record_span are listed in DESIGN.md §10.
type TraceEvent = telemetry.Event

// traceUS is the one place a clock reading becomes a trace timestamp:
// Unix microseconds, the zero time (a span leg never stamped) staying 0.
func traceUS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMicro()
}

// flowctl_limit trace codes (the event's Seq field): which configured
// bound tripped.
const (
	flowctlReorder    = 1 // receiver's reorder limit, the session fails (Config.MaxReorder*)
	flowctlRecvBuffer = 2 // receive-buffer cap (Config.MaxRecvBufferBytes)
	flowctlWindow     = 3 // send window full, sealing parks (Config.MaxRetransmitBytes)
)

// SetTracer installs a trace callback. The callback runs synchronously
// on the engine's path: keep it cheap (append to a buffer, write a
// line). nil disables tracing.
func (s *Session) SetTracer(fn func(TraceEvent)) { s.tracer = fn }

// Note lets the I/O wrapper stamp its own lifecycle marks (e.g.
// reconnect_attempt, reconnect_ok, cookie_issued, join_accepted) into
// the same trace stream as the engine's protocol
// events, so one timeline covers both. Unlike the engine's internal
// emissions, a Note refreshes the trace clock: wrapper marks happen in
// real time, not at the last receive.
func (s *Session) Note(name string, conn, stream uint32, seq uint64, bytes int) {
	if s.tracer == nil {
		return
	}
	s.setNow(s.now())
	s.trace(name, conn, stream, seq, bytes)
}

// setNow dates the events that follow, until the next input or flush.
func (s *Session) setNow(t time.Time) {
	s.lastNow = t
	s.nowStale = false
}

// traceNow is the current event's timestamp. After stampSendTrace the
// clock is read here, at the first event, so a flush that emits none
// reads none.
func (s *Session) traceNow() int64 {
	if s.nowStale {
		s.setNow(s.now())
	}
	return traceUS(s.lastNow)
}

// trace emits one event when tracing is enabled.
func (s *Session) trace(name string, conn, stream uint32, seq uint64, bytes int) {
	if s.tracer == nil {
		return
	}
	s.tracer(TraceEvent{
		TimeUS: s.traceNow(),
		Name:   name,
		Conn:   conn,
		Stream: stream,
		Seq:    seq,
		Bytes:  bytes,
	})
}

// traceSpan emits the span-complete event for one acknowledged record:
// Conn is the connection it was last carried on, OrigConn where it was
// first sealed, Retx its failover replays.
func (s *Session) traceSpan(conn, stream uint32, r *sentRecord) {
	if s.tracer == nil {
		return
	}
	now := s.traceNow()
	s.tracer(TraceEvent{
		TimeUS:    now,
		Name:      "record_span",
		Conn:      conn,
		Stream:    stream,
		Seq:       r.seq,
		Bytes:     r.size,
		EnqUS:     traceUS(r.enqAt),
		SealedUS:  traceUS(r.sentAt),
		WrittenUS: traceUS(r.writtenAt),
		AckedUS:   now,
		OrigConn:  r.origConn,
		Retx:      int32(r.retxCount),
	})
}
