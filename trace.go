package tcpls

import (
	"errors"
	"io"

	"tcpls/internal/core"
	"tcpls/internal/telemetry"
)

// TraceJSON streams the session's protocol events to w as qlog lines
// (a header line, then one event per line; DESIGN.md §10 has the
// schema) — the paper artifact ships QLOG/QVIS support for exactly this
// kind of offline analysis. Call before traffic flows; pass nil to stop
// tracing.
//
// Events are routed through a bounded ring buffer drained by a
// dedicated writer goroutine, so a slow or stalled w never backpressures
// the engine's send/recv path: when the ring fills, events are dropped
// and counted (TraceDropped in Session.Snapshot,
// tcpls_trace_dropped_total on /metrics).
func (s *Session) TraceJSON(w io.Writer) {
	var sink *telemetry.Sink
	if w != nil {
		// The sink spawns its writer goroutine; build it off the lock.
		sink = telemetry.NewSink(w, telemetry.SinkOptions{})
	}
	s.mu.Lock()
	prev := s.retireSinkLocked(sink)
	s.refreshTracerLocked()
	s.mu.Unlock()
	// Flush the displaced sink outside the session lock: Close drains a
	// healthy writer completely (so callers swapping the trace target see
	// every event) and its wait is bounded when the writer is stalled.
	if prev != nil {
		prev.Close()
	}
}

// retireSinkLocked installs sink as the trace sink and returns the one it
// displaced, whose events and drops the session keeps counting: the
// engine emits under s.mu, so the displaced sink's counts are final.
func (s *Session) retireSinkLocked(sink *telemetry.Sink) *telemetry.Sink {
	prev := s.traceSink
	s.traceSink = sink
	if prev != nil {
		s.traceEvents += prev.Emitted()
		s.traceDropped += prev.Dropped()
	}
	return prev
}

// refreshTracerLocked is the single point that installs the engine
// tracer, fanning each event out to the flight recorder and the
// TraceJSON sink — whichever are active. Both installers (initTelemetry,
// TraceJSON) route through here so neither can displace the other's
// consumer and strand its bookkeeping (the sink's writer goroutine in
// particular).
func (s *Session) refreshTracerLocked() {
	flight, sink := s.flight, s.traceSink
	if flight == nil && sink == nil {
		s.engine.SetTracer(nil)
		return
	}
	s.engine.SetTracer(func(ev core.TraceEvent) {
		if flight != nil {
			flight.Append(ev)
		}
		if sink != nil {
			sink.Emit(ev)
		}
	})
}

// errNoFlight reports a dump request on a session whose flight recorder
// is off (Telemetry.Disabled or FlightCapacity < 0).
var errNoFlight = errors.New("tcpls: flight recorder disabled")

// DumpFlight writes the flight recorder's contents — the most recent
// trace events, spans included — to w in the same qlog-lines framing as
// TraceJSON, so tcpls-trace reads dumps and live traces identically.
// Safe to call at any time, including concurrently with Close and from
// a signal handler; the dump is a point-in-time snapshot.
func (s *Session) DumpFlight(w io.Writer) error {
	s.mu.Lock()
	flight := s.flight
	s.mu.Unlock()
	if flight == nil {
		return errNoFlight
	}
	return flight.Dump(w)
}
