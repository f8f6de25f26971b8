package telemetry

import (
	"slices"
	"strconv"
	"sync"
)

// seriesDef names one family of the TCPLS per-session set and reads a
// session's series of it from a row of its Snapshot (T = Snapshot,
// Stats or StreamSnapshot): a uint64 counter, an int64 gauge or a
// *Hist over bounds.
type seriesDef[T any] struct {
	name, help string
	kind       metricKind
	bounds     []float64
	read       func(*T) any
}

func counter[T any](name, help string, v func(*T) uint64) seriesDef[T] {
	return seriesDef[T]{name, help, kindCounter, nil, func(t *T) any { return v(t) }}
}

func gauge(name, help string, v func(*Snapshot) int) seriesDef[Snapshot] {
	return seriesDef[Snapshot]{name, help, kindGauge, nil, func(s *Snapshot) any { return int64(v(s)) }}
}

func histogram(name, help string, bounds []float64, v func(*Snapshot) *Hist) seriesDef[Snapshot] {
	return seriesDef[Snapshot]{name, help, kindHistogram, bounds, func(s *Snapshot) any { return v(s) }}
}

var sessionSeries = []seriesDef[Snapshot]{
	counter("tcpls_conn_failures_total", "TCP connections declared failed (RST, timeout, or peer notice).", func(s *Snapshot) uint64 { return s.ConnFailures }),
	counter("tcpls_failovers_total", "Failover resynchronizations performed.", func(s *Snapshot) uint64 { return s.Failovers }),
	counter("tcpls_failover_cascades_total", "Failovers whose target had absorbed an earlier failover.", func(s *Snapshot) uint64 { return s.FailoverCascades }),
	counter("tcpls_reconnect_attempts_total", "Recovery-supervisor redial rounds started.", func(s *Snapshot) uint64 { return s.ReconnectAttempts }),
	counter("tcpls_reconnects_total", "Successful session revivals through the join path.", func(s *Snapshot) uint64 { return s.Reconnects }),
	counter("tcpls_recovery_failures_total", "Sessions declared dead after exhausting the recovery budget.", func(s *Snapshot) uint64 { return s.RecoveryFailures }),
	counter("tcpls_sched_invalid_total", "Out-of-range scheduler picks that fell back to path 0.", func(s *Snapshot) uint64 { return s.SchedInvalid }),
	counter("tcpls_trace_events_total", "Trace events enqueued on the qlog sink.", func(s *Snapshot) uint64 { return s.TraceEvents }),
	counter("tcpls_trace_dropped_total", "Trace events dropped because the sink ring was full.", func(s *Snapshot) uint64 { return s.TraceDropped }),
	counter("tcpls_flowctl_limit_total", "Configured memory bounds tripped (reorder cap, receive buffer, retransmit budget).", func(s *Snapshot) uint64 { return s.FlowctlLimits }),
	counter("tcpls_ack_solicited_total", "ACK solicitations sent under retransmit-budget pressure.", func(s *Snapshot) uint64 { return s.AckSolicits }),
	histogram("tcpls_ack_rtt_seconds", "Record-level acknowledgment round-trip samples (Karn-filtered).", RTTBuckets, func(s *Snapshot) *Hist { return &s.AckRTT }),
	histogram("tcpls_record_payload_bytes", "Stream payload size per sealed record.", SizeBuckets, func(s *Snapshot) *Hist { return &s.RecordSize }),
	gauge("tcpls_reorder_heap_depth", "Out-of-order records held by the coupled reorder heap.", func(s *Snapshot) int { return s.ReorderDepth }),
	gauge("tcpls_reorder_bytes", "Payload bytes parked in the coupled reorder heap.", func(s *Snapshot) int { return s.ReorderBytes }),
	gauge("tcpls_retransmit_bytes", "Payload bytes held across all streams' retransmit buffers.", func(s *Snapshot) int { return s.RetransmitBytes }),
	gauge("tcpls_conns_open", "Live TCP connections in the session.", func(s *Snapshot) int { return s.ConnsLive }),
	gauge("tcpls_streams_open", "Open streams in the session.", func(s *Snapshot) int { return s.StreamsOpen }),
}

var connSeries = []seriesDef[Stats]{
	counter("tcpls_records_sent_total", "TLS records sealed onto a connection (data and control).", func(s *Stats) uint64 { return s.RecordsSent }),
	counter("tcpls_records_received_total", "TLS records successfully opened from a connection.", func(s *Stats) uint64 { return s.RecordsReceived }),
	counter("tcpls_bytes_sent_total", "Stream payload bytes sealed onto a connection.", func(s *Stats) uint64 { return s.BytesSent }),
	counter("tcpls_bytes_received_total", "Stream payload bytes received on a connection.", func(s *Stats) uint64 { return s.BytesReceived }),
	counter("tcpls_retransmits_total", "Records replayed onto a connection during failover.", func(s *Stats) uint64 { return s.Retransmits }),
	counter("tcpls_acks_sent_total", "Record-level acknowledgments sent on a connection.", func(s *Stats) uint64 { return s.AcksSent }),
	counter("tcpls_acks_received_total", "Record-level acknowledgments received for streams homed on a connection.", func(s *Stats) uint64 { return s.AcksReceived }),
	counter("tcpls_dup_records_dropped_total", "Failover-replay duplicates dropped by the receive filter.", func(s *Stats) uint64 { return s.DupRecordsDropped }),
	counter("tcpls_failed_decrypts_total", "Records that matched no stream context (forgery budget).", func(s *Stats) uint64 { return s.FailedDecrypts }),
}

var streamSeries = []seriesDef[StreamSnapshot]{
	counter("tcpls_stream_bytes_sent_total", "Payload bytes sealed per stream.", func(s *StreamSnapshot) uint64 { return s.BytesSent }),
	counter("tcpls_stream_bytes_received_total", "Payload bytes received per stream.", func(s *StreamSnapshot) uint64 { return s.BytesReceived }),
}

// Families is the TCPLS per-session metric family set over one
// registry, resolved once per registry. These families have no
// permanent children: their series are read from the attached
// sessions' snapshots at scrape time, labelled sess and role (the two
// ends of one session share sess) and, below the session, conn, stream
// or policy.
type Families struct {
	reg *Registry
	// Parallel to sessionSeries, connSeries and streamSeries.
	session, conn, stream []*family
	schedPicks            *family
}

// TCPLSFamilies returns the TCPLS metric set of r, registering it on
// first use.
func TCPLSFamilies(r *Registry) *Families {
	r.tcplsOnce.Do(func() {
		perSession := func(name, help string, kind metricKind, bounds []float64, labels ...string) *family {
			f := r.register(name, help, kind, append([]string{"sess", "role"}, labels...), bounds)
			f.perSession.Store(true)
			return f
		}
		f := &Families{reg: r}
		for _, d := range sessionSeries {
			f.session = append(f.session, perSession(d.name, d.help, d.kind, d.bounds))
		}
		for _, d := range connSeries {
			f.conn = append(f.conn, perSession(d.name, d.help, d.kind, nil, "conn"))
		}
		for _, d := range streamSeries {
			f.stream = append(f.stream, perSession(d.name, d.help, d.kind, nil, "stream"))
		}
		f.schedPicks = perSession("tcpls_sched_picks_total", "Coupled records routed by the path scheduler, per policy.", kindCounter, nil, "policy")
		r.tcpls = f
	})
	return r.tcpls
}

// SessionMetrics is one end of one session in the registry: its only
// entry there. It holds no counters. A scrape asks its fill for the
// session's Snapshot — the engine's own count (DESIGN.md §10.1) — and
// renders the per-session families from that; the health monitor's
// per-session series ride in it beside them.
//
// A nil *SessionMetrics means telemetry is disabled: Counter and Gauge
// return nil (whose methods are no-ops) and Detach does nothing.
type SessionMetrics struct {
	fams       *Families
	sess, role string
	seq        uint64 // attach order
	// fill is called on the scraping goroutine, after the registry lock
	// is released: it takes the session's own lock.
	fill func(*Snapshot)

	mu     sync.Mutex
	riders []sample // series of other families that live in this entry
}

// Session attaches one end of a session (role "client" or "server") to
// the registry, its series read through fill; Detach takes it out again.
func (f *Families) Session(sess, role string, fill func(*Snapshot)) *SessionMetrics {
	sm := &SessionMetrics{fams: f, sess: sess, role: role, fill: fill}
	r := f.reg
	r.mu.Lock()
	r.attachSeq++
	sm.seq = r.attachSeq
	r.sessions[sm] = struct{}{}
	r.mu.Unlock()
	return sm
}

// Detach removes the entry from the registry: its series leave
// /metrics. Safe on a nil receiver and idempotent.
func (sm *SessionMetrics) Detach() {
	if sm != nil {
		r := sm.fams.reg
		r.mu.Lock()
		delete(r.sessions, sm)
		r.mu.Unlock()
	}
}

// Counter returns a new series of another family (v's schema, these
// label values) that lives in the entry and leaves /metrics with it:
// the health monitor's per-session tcpls_health_* series.
func (sm *SessionMetrics) Counter(v *CounterVec, values ...string) *Counter {
	if sm == nil {
		return nil
	}
	c := new(Counter)
	sm.addRider(v.f, values, c)
	return c
}

// Gauge is Counter for a gauge family.
func (sm *SessionMetrics) Gauge(v *GaugeVec, values ...string) *Gauge {
	if sm == nil {
		return nil
	}
	g := new(Gauge)
	sm.addRider(v.f, values, g)
	return g
}

func (sm *SessionMetrics) addRider(f *family, values []string, metric any) {
	f.perSession.Store(true)
	sm.mu.Lock()
	sm.riders = append(sm.riders, sample{f, values, metric})
	sm.mu.Unlock()
}

// appendSamples fills a fresh Snapshot and lists every series of the
// entry in a stable order: session level, connections and streams by
// ID, policies by name, then the riders in the order they were added.
func (sm *SessionMetrics) appendSamples(dst []sample) []sample {
	snap := new(Snapshot)
	sm.fill(snap)
	fs := sm.fams
	base := []string{sm.sess, sm.role}
	labels := func(last string) []string { return append(base[:2:2], last) }
	for i, d := range sessionSeries {
		dst = append(dst, sample{fs.session[i], base, d.read(snap)})
	}
	for i := range snap.Conns {
		c := &snap.Conns[i]
		lv := labels(strconv.FormatUint(uint64(c.ID), 10))
		for j, d := range connSeries {
			dst = append(dst, sample{fs.conn[j], lv, d.read(&c.Stats)})
		}
	}
	for i := range snap.Streams {
		st := &snap.Streams[i]
		lv := labels(strconv.FormatUint(uint64(st.ID), 10))
		for j, d := range streamSeries {
			dst = append(dst, sample{fs.stream[j], lv, d.read(st)})
		}
	}
	policies := make([]string, 0, len(snap.SchedPicks))
	for p := range snap.SchedPicks {
		policies = append(policies, p)
	}
	slices.Sort(policies)
	for _, p := range policies {
		dst = append(dst, sample{fs.schedPicks, labels(p), snap.SchedPicks[p]})
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return append(dst, sm.riders...)
}
