package tcpls

import (
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/health"
	"tcpls/internal/telemetry"
)

// TelemetryConfig is the Config.Telemetry knob: production observability
// for a session. The zero value keeps the lock-free metrics registry on
// (a handful of atomic increments per record) without serving anything;
// Addr additionally exposes /metrics and /debug/pprof; Disabled turns
// the whole layer into a nil-check on the hot path.
type TelemetryConfig struct {
	// Disabled switches metric collection off entirely. The engine's
	// emission points reduce to one nil-check each and Session.Metrics
	// returns only the basic engine Stats.
	Disabled bool
	// Addr, when non-empty, serves the shared metrics registry over
	// HTTP at this address: Prometheus text format on /metrics and the
	// pprof surface (goroutine, heap, profile, trace) under
	// /debug/pprof/. Sessions and listeners sharing an Addr share one
	// server; it stops when the last holder closes.
	Addr string
	// Sample thins the qlog trace sink: only one in Sample events is
	// written (0 and 1 keep every event). Metrics are never sampled.
	Sample int
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

// Stats re-exports the engine's raw counter block (see Session.Stats).
type Stats = core.Stats

// MetricsSnapshot is a point-in-time copy of a session's aggregated
// telemetry, returned by Session.Metrics. Counters are cumulative since
// the session started; gauges are instantaneous.
type MetricsSnapshot struct {
	// Stats is the engine's raw counter block (records, bytes, acks,
	// retransmits), always populated even with telemetry disabled.
	Stats Stats

	// Recovery and failover counters (tcpls_* families on /metrics).
	ConnFailures      uint64
	Failovers         uint64
	FailoverCascades  uint64
	ReconnectAttempts uint64
	Reconnects        uint64
	RecoveryFailures  uint64

	// SchedPicks counts coupled records routed per scheduler policy.
	SchedPicks   map[string]uint64
	SchedInvalid uint64

	// Trace sink health: events enqueued and events lost to a full ring.
	TraceEvents  uint64
	TraceDropped uint64

	// Flow-control counters: configured memory bounds tripped and ACK
	// solicitations sent under retransmit-budget pressure.
	FlowctlLimits uint64
	AckSolicits   uint64

	// AckRTT summarizes the record-level acknowledgment RTT histogram.
	AckRTTSamples uint64
	AckRTTMean    time.Duration

	// Instantaneous gauges. The byte gauges and their session peaks come
	// straight from the engine, so they are populated even with
	// Telemetry.Disabled — the chaos tests assert memory bounds through
	// them.
	ReorderHeapDepth    int
	ReorderBytes        int
	ReorderBytesPeak    int
	RetransmitBytes     int
	RetransmitBytesPeak int
	ConnsOpen           int
	StreamsOpen         int

	// Conns breaks the record counters down per connection (per path) —
	// the totals tcpls-trace reconciles a flight dump against.
	Conns map[uint32]ConnMetricsSnapshot

	// Flight recorder health: events currently held and ever appended.
	FlightEvents int
	FlightTotal  uint64
}

// ConnMetricsSnapshot is one connection's counter block inside a
// MetricsSnapshot.
type ConnMetricsSnapshot struct {
	RecordsSent     uint64
	RecordsReceived uint64
	BytesSent       uint64
	BytesReceived   uint64
	Retransmits     uint64
	AcksSent        uint64
	AcksReceived    uint64
	DupRecords      uint64
	FailedDecrypts  uint64
}

// Metrics returns a snapshot of the session's telemetry. With
// Telemetry.Disabled only the Stats block is populated.
func (s *Session) Metrics() MetricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := MetricsSnapshot{Stats: s.engine.Stats()}
	snap.ReorderBytes = s.engine.ReorderBytes()
	snap.ReorderBytesPeak = s.engine.ReorderPeakBytes()
	snap.RetransmitBytes = s.engine.RetransmitBytes()
	snap.RetransmitBytesPeak = s.engine.RetransmitPeakBytes()
	if f := s.flight; f != nil {
		snap.FlightEvents = f.Len()
		snap.FlightTotal = f.Total()
	}
	tel := s.tel
	if tel == nil {
		snap.ReorderHeapDepth = s.engine.ReorderDepth()
		return snap
	}
	snap.ConnFailures = tel.ConnFailures.Load()
	snap.Failovers = tel.Failovers.Load()
	snap.FailoverCascades = tel.FailoverCascades.Load()
	snap.ReconnectAttempts = tel.ReconnectAttempts.Load()
	snap.Reconnects = tel.Reconnects.Load()
	snap.RecoveryFailures = tel.RecoveryFailures.Load()
	conns, picks := tel.Held()
	snap.SchedPicks = make(map[string]uint64, len(picks))
	for policy, c := range picks {
		snap.SchedPicks[policy] = c.Load()
	}
	snap.SchedInvalid = tel.SchedInvalid.Load()
	snap.TraceEvents = tel.TraceEvents.Load()
	snap.TraceDropped = tel.TraceDropped.Load()
	snap.FlowctlLimits = tel.FlowctlLimits.Load()
	snap.AckSolicits = tel.AckSolicits.Load()
	snap.AckRTTSamples = tel.AckRTT.Count()
	snap.AckRTTMean = time.Duration(tel.AckRTT.Mean() * float64(time.Second))
	snap.ReorderHeapDepth = int(tel.ReorderDepth.Load())
	snap.ConnsOpen = int(tel.ConnsOpen.Load())
	snap.StreamsOpen = int(tel.StreamsOpen.Load())
	snap.Conns = make(map[uint32]ConnMetricsSnapshot, len(conns))
	for id, cm := range conns {
		snap.Conns[id] = ConnMetricsSnapshot{
			RecordsSent:     cm.RecordsSent.Load(),
			RecordsReceived: cm.RecordsReceived.Load(),
			BytesSent:       cm.BytesSent.Load(),
			BytesReceived:   cm.BytesReceived.Load(),
			Retransmits:     cm.Retransmits.Load(),
			AcksSent:        cm.AcksSent.Load(),
			AcksReceived:    cm.AcksReceived.Load(),
			DupRecords:      cm.DupRecords.Load(),
			FailedDecrypts:  cm.FailedDecrypts.Load(),
		}
	}
	return snap
}

// MetricsHandler returns an http.Handler serving the process-wide
// metrics registry in Prometheus text format, for applications that
// already run an HTTP server and want /metrics on their own mux.
func MetricsHandler() http.Handler {
	return telemetry.Handler(telemetry.Default())
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

// initTelemetry attaches the session's metrics block to the process-wide
// registry (its one entry there, labelled sess and role: the two ends of
// a session share a sessLabel and count apart), starts the always-on
// flight recorder, registers the /debug/tcpls state provider, and
// acquires the HTTP endpoint if one is configured; closeTelemetryLocked
// gives all of it back. Called from newSession before the engine sees
// traffic (no lock needed yet).
func (s *Session) initTelemetry() {
	if s.cfg.Telemetry.Disabled {
		return
	}
	label, role := sessLabel(s.sessID), "server"
	if s.isClient {
		role = "client"
	}
	s.tel = telemetry.TCPLSFamilies(telemetry.Default()).Session(label, role)
	s.engine.SetTelemetry(s.tel)
	if s.cfg.Telemetry.FlightCapacity >= 0 {
		s.flight = telemetry.NewFlight(s.cfg.Telemetry.FlightCapacity)
		// Record-lifecycle spans need the socket-write leg; the wrapper's
		// writer goroutines report it via NoteWritten/NoteWriteDropped.
		s.engine.SetWriteStamping(true)
		s.refreshTracerLocked()
	}
	s.debugKey = label + "-" + role + "-" + strconv.FormatUint(debugSeq.Add(1), 10)
	telemetry.RegisterDebug(s.debugKey, s.debugState)
	if addr := s.cfg.Telemetry.Addr; addr != "" {
		if err := acquireTelemetryServer(addr); err == nil {
			s.telAddr = addr
		}
	}
	s.initHealth()
}

// closeTelemetryLocked detaches the session's metrics block and releases
// its trace sink, debug registration, and HTTP endpoint reference: the
// process-wide registries then hold nothing of the session. Idempotent;
// called from every teardown path. The block and the flight recorder
// stay readable — Metrics and DumpFlight on a dead session are the point.
func (s *Session) closeTelemetryLocked() {
	s.closeHealthLocked()
	s.tel.Detach()
	if sink := s.traceSink; sink != nil {
		s.traceSink = nil
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
