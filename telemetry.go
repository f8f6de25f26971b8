package tcpls

import (
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"tcpls/internal/health"
	"tcpls/internal/telemetry"
)

// TelemetryConfig is the Config.Telemetry knob: production observability
// for a session. The zero value gives the session an entry in the shared
// metrics registry, a flight recorder and a health monitor without
// serving anything; Addr additionally exposes /metrics and /debug/pprof.
// The engine counts regardless: Session.Snapshot is complete either way.
type TelemetryConfig struct {
	// Disabled leaves the session out of the registry, /debug/tcpls and
	// health monitoring, and turns its flight recorder off.
	Disabled bool
	// Addr, when non-empty, serves the shared metrics registry over
	// HTTP at this address: Prometheus text format on /metrics and the
	// pprof surface (goroutine, heap, profile, trace) under
	// /debug/pprof/. Sessions and listeners sharing an Addr share one
	// server; it stops when the last holder closes.
	Addr string
	// FlightCapacity sizes the always-on flight recorder ring (events
	// held, 88 bytes each). 0 means the default 8192 (~0.7 MiB);
	// negative disables the recorder.
	FlightCapacity int
	// FlightDump, when set, receives an automatic flight-recorder dump
	// when the session dies with an error (SessionDeadError, protocol
	// failure) — the postmortem trace. The write happens on its own
	// goroutine; the writer must be safe for one concurrent use.
	FlightDump io.Writer
}

// Stats is the engine's raw counter block (see Session.Stats).
type Stats = telemetry.Stats

// Snapshot is the observable state of one end of a session at one
// instant: gauges and cumulative counters, one ConnSnapshot per
// connection and one StreamSnapshot per stream in ascending ID order.
// Session.Snapshot returns it, /debug/tcpls serves it as JSON and the
// health sampler reads it; DESIGN.md §10.1 lists every field.
type (
	Snapshot       = telemetry.Snapshot
	ConnSnapshot   = telemetry.ConnSnapshot
	StreamSnapshot = telemetry.StreamSnapshot
)

// Snapshot returns the session's state now. It stays readable after
// Close, and Telemetry.Disabled leaves it complete.
func (s *Session) Snapshot() Snapshot {
	var snap Snapshot
	s.fillSnapshot(&snap)
	return snap
}

// fillSnapshot is snapshotLocked under s.mu: the fill of the session's
// registry entry and of its health monitor's ticks.
func (s *Session) fillSnapshot(dst *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotLocked(dst)
}

// snapshotLocked fills dst — the engine's one pass and the driver's
// part, then the wrapper's envelope — reusing dst's rows. The caller
// holds s.mu.
func (s *Session) snapshotLocked(dst *Snapshot) {
	s.drv.Snapshot(dst)
	dst.Role = s.role()
	dst.Closed = s.closed
	if f := s.flight; f != nil {
		dst.FlightEvents = f.Len()
		dst.FlightTotal = f.Total()
	}
	dst.TraceEvents, dst.TraceDropped = s.traceEvents, s.traceDropped
	if sink := s.traceSink; sink != nil {
		dst.TraceEvents += sink.Emitted()
		dst.TraceDropped += sink.Dropped()
	}
}

// DebugHandler returns the /debug/tcpls handler — every live session's
// Snapshot as JSON — for applications embedding telemetry in their own
// mux (the Config.Telemetry.Addr server serves it already).
func DebugHandler() http.Handler {
	return telemetry.DebugHandler()
}

// ServeTelemetry starts the shared telemetry server on addr (the same
// endpoint Config.Telemetry.Addr provides per session) and returns a
// handle that keeps it alive until closed. Commands use this to hold
// the endpoint open for the whole process lifetime regardless of
// session churn.
func ServeTelemetry(addr string) (io.Closer, error) {
	if err := acquireTelemetryServer(addr); err != nil {
		return nil, err
	}
	return telemetryRef(addr), nil
}

// telemetryRef is one reference on a shared telemetry server.
type telemetryRef string

func (r telemetryRef) Close() error {
	releaseTelemetryServer(string(r))
	return nil
}

// Shared telemetry servers, refcounted by listen address: every session
// and listener configured with the same Telemetry.Addr holds one
// reference; the HTTP server stops when the last reference drops (so
// tests with ephemeral sessions leak nothing).
var (
	telServersMu sync.Mutex
	telServers   = make(map[string]*sharedTelemetryServer)
)

type sharedTelemetryServer struct {
	srv  *telemetry.Server
	refs int
}

func acquireTelemetryServer(addr string) error {
	telServersMu.Lock()
	defer telServersMu.Unlock()
	if ts, ok := telServers[addr]; ok {
		ts.refs++
		return nil
	}
	srv, err := telemetry.Serve(addr, telemetry.Default())
	if err != nil {
		return fmt.Errorf("tcpls: telemetry listen %s: %w", addr, err)
	}
	telServers[addr] = &sharedTelemetryServer{srv: srv, refs: 1}
	return nil
}

func releaseTelemetryServer(addr string) {
	telServersMu.Lock()
	defer telServersMu.Unlock()
	ts, ok := telServers[addr]
	if !ok {
		return
	}
	if ts.refs--; ts.refs <= 0 {
		ts.srv.Close()
		delete(telServers, addr)
	}
}

// role names the session's end, as the metrics' role label and the
// snapshot's Role do.
func (s *Session) role() string {
	if s.isClient {
		return "client"
	}
	return "server"
}

// sessLabel renders the sess metric label: the first four SessID bytes,
// enough to tell sessions apart on a dashboard without exploding
// cardinality.
func sessLabel(id SessID) string {
	return hex.EncodeToString(id[:4])
}

// debugSeq disambiguates /debug/tcpls keys: labels can recur across a
// process lifetime.
var debugSeq atomic.Uint64

// healthFams is the tcpls_health_* family set on the process-wide
// registry, resolved once like TCPLSFamilies.
var healthFams = health.NewFamilies(telemetry.Default())

// initTelemetry attaches the session to the process-wide registry (its
// one entry there, labelled sess and role: the two ends of a session
// share a sessLabel and count apart), starts the always-on flight
// recorder, registers the /debug/tcpls state provider, and acquires the
// HTTP endpoint if one is configured; closeTelemetryLocked gives all of
// it back. Called from newSession before the engine sees traffic (no
// lock needed yet).
func (s *Session) initTelemetry() {
	if s.cfg.Telemetry.Disabled {
		return
	}
	label, role := sessLabel(s.sessID), s.role()
	s.entry = telemetry.TCPLSFamilies(telemetry.Default()).Session(label, role, s.fillSnapshot)
	if s.cfg.Telemetry.FlightCapacity >= 0 {
		s.flight = telemetry.NewFlight(s.cfg.Telemetry.FlightCapacity)
		// Record-lifecycle spans need the socket-write leg; the wrapper's
		// writer goroutines report it via NoteWritten/NoteWriteDropped.
		s.engine.SetWriteStamping(true)
		s.refreshTracerLocked()
	}
	s.debugKey = label + "-" + role + "-" + strconv.FormatUint(debugSeq.Add(1), 10)
	telemetry.RegisterDebug(s.debugKey, func() any { return s.Snapshot() })
	if addr := s.cfg.Telemetry.Addr; addr != "" {
		if err := acquireTelemetryServer(addr); err == nil {
			s.telAddr = addr
		}
	}
	s.initHealth()
}

// closeTelemetryLocked detaches the session's registry entry and
// releases its trace sink, debug registration, and HTTP endpoint
// reference: the process-wide registries then hold nothing of the
// session. Idempotent; called from every teardown path. The engine's
// count and the flight recorder stay readable — Snapshot and DumpFlight
// on a dead session are the point.
func (s *Session) closeTelemetryLocked() {
	s.closeHealthLocked()
	s.entry.Detach()
	if sink := s.retireSinkLocked(nil); sink != nil {
		s.refreshTracerLocked()
		// Close flushes; do it off the lock path budget — the sink's
		// Close is bounded regardless.
		go sink.Close()
	}
	if s.debugKey != "" {
		telemetry.UnregisterDebug(s.debugKey)
		s.debugKey = ""
	}
	if s.telAddr != "" {
		releaseTelemetryServer(s.telAddr)
		s.telAddr = ""
	}
}
