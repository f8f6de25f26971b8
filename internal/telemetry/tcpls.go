package telemetry

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// seriesDef names one family of the TCPLS per-session set and the field
// of a block (T = SessionMetrics, ConnMetrics or StreamMetrics) that
// holds a session's series of it.
type seriesDef[T any] struct {
	name, help string
	field      func(*T) any
}

var sessionSeries = []seriesDef[SessionMetrics]{
	{"tcpls_conn_failures_total", "TCP connections declared failed (RST, timeout, or peer notice).", func(sm *SessionMetrics) any { return &sm.ConnFailures }},
	{"tcpls_failovers_total", "Failover resynchronizations performed.", func(sm *SessionMetrics) any { return &sm.Failovers }},
	{"tcpls_failover_cascades_total", "Failovers whose target had absorbed an earlier failover.", func(sm *SessionMetrics) any { return &sm.FailoverCascades }},
	{"tcpls_reconnect_attempts_total", "Recovery-supervisor redial rounds started.", func(sm *SessionMetrics) any { return &sm.ReconnectAttempts }},
	{"tcpls_reconnects_total", "Successful session revivals through the join path.", func(sm *SessionMetrics) any { return &sm.Reconnects }},
	{"tcpls_recovery_failures_total", "Sessions declared dead after exhausting the recovery budget.", func(sm *SessionMetrics) any { return &sm.RecoveryFailures }},
	{"tcpls_sched_invalid_total", "Out-of-range scheduler picks that fell back to path 0.", func(sm *SessionMetrics) any { return &sm.SchedInvalid }},
	{"tcpls_trace_events_total", "Trace events enqueued on the qlog sink.", func(sm *SessionMetrics) any { return &sm.TraceEvents }},
	{"tcpls_trace_dropped_total", "Trace events dropped because the sink ring was full.", func(sm *SessionMetrics) any { return &sm.TraceDropped }},
	{"tcpls_flowctl_limit_total", "Configured memory bounds tripped (reorder cap, receive buffer, retransmit budget).", func(sm *SessionMetrics) any { return &sm.FlowctlLimits }},
	{"tcpls_ack_solicited_total", "ACK solicitations sent under retransmit-budget pressure.", func(sm *SessionMetrics) any { return &sm.AckSolicits }},
	{"tcpls_ack_rtt_seconds", "Record-level acknowledgment round-trip samples (Karn-filtered).", func(sm *SessionMetrics) any { return &sm.AckRTT }},
	{"tcpls_record_payload_bytes", "Stream payload size per sealed record.", func(sm *SessionMetrics) any { return &sm.RecordSize }},
	{"tcpls_reorder_heap_depth", "Out-of-order records held by the coupled reorder heap.", func(sm *SessionMetrics) any { return &sm.ReorderDepth }},
	{"tcpls_reorder_bytes", "Payload bytes parked in the coupled reorder heap.", func(sm *SessionMetrics) any { return &sm.ReorderBytes }},
	{"tcpls_retransmit_bytes", "Payload bytes held across all streams' retransmit buffers.", func(sm *SessionMetrics) any { return &sm.RetransmitBytes }},
	{"tcpls_conns_open", "Live TCP connections in the session.", func(sm *SessionMetrics) any { return &sm.ConnsOpen }},
	{"tcpls_streams_open", "Open streams in the session.", func(sm *SessionMetrics) any { return &sm.StreamsOpen }},
}

var connSeries = []seriesDef[ConnMetrics]{
	{"tcpls_records_sent_total", "TLS records sealed onto a connection (data and control).", func(cm *ConnMetrics) any { return &cm.RecordsSent }},
	{"tcpls_records_received_total", "TLS records successfully opened from a connection.", func(cm *ConnMetrics) any { return &cm.RecordsReceived }},
	{"tcpls_bytes_sent_total", "Stream payload bytes sealed onto a connection.", func(cm *ConnMetrics) any { return &cm.BytesSent }},
	{"tcpls_bytes_received_total", "Stream payload bytes received on a connection.", func(cm *ConnMetrics) any { return &cm.BytesReceived }},
	{"tcpls_retransmits_total", "Records replayed onto a connection during failover.", func(cm *ConnMetrics) any { return &cm.Retransmits }},
	{"tcpls_acks_sent_total", "Record-level acknowledgments sent on a connection.", func(cm *ConnMetrics) any { return &cm.AcksSent }},
	{"tcpls_acks_received_total", "Record-level acknowledgments received for streams homed on a connection.", func(cm *ConnMetrics) any { return &cm.AcksReceived }},
	{"tcpls_dup_records_dropped_total", "Failover-replay duplicates dropped by the receive filter.", func(cm *ConnMetrics) any { return &cm.DupRecords }},
	{"tcpls_failed_decrypts_total", "Records that matched no stream context (forgery budget).", func(cm *ConnMetrics) any { return &cm.FailedDecrypts }},
}

var streamSeries = []seriesDef[StreamMetrics]{
	{"tcpls_stream_bytes_sent_total", "Payload bytes sealed per stream.", func(stm *StreamMetrics) any { return &stm.BytesSent }},
	{"tcpls_stream_bytes_received_total", "Payload bytes received per stream.", func(stm *StreamMetrics) any { return &stm.BytesReceived }},
}

// Families is the TCPLS per-session metric family set over one
// registry, resolved once per registry. These families have no
// permanent children: their series are the blocks of the attached
// sessions, labelled sess and role (the two ends of one session share
// sess) and, below the session, conn, stream or policy.
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
		perSession := func(name, help string, metric any, labels ...string) *family {
			kind, bounds := kindCounter, []float64(nil)
			switch m := metric.(type) {
			case *Gauge:
				kind = kindGauge
			case *Histogram:
				kind, bounds = kindHistogram, m.bounds
			}
			f := r.register(name, help, kind, append([]string{"sess", "role"}, labels...), bounds)
			f.perSession.Store(true)
			return f
		}
		f, probe := &Families{reg: r}, newSessionMetrics()
		for _, d := range sessionSeries {
			f.session = append(f.session, perSession(d.name, d.help, d.field(probe)))
		}
		for _, d := range connSeries {
			f.conn = append(f.conn, perSession(d.name, d.help, new(Counter), "conn"))
		}
		for _, d := range streamSeries {
			f.stream = append(f.stream, perSession(d.name, d.help, new(Counter), "stream"))
		}
		f.schedPicks = perSession("tcpls_sched_picks_total", "Coupled records routed by the path scheduler, per policy.", new(Counter), "policy")
		r.tcpls = f
	})
	return r.tcpls
}

// SessionMetrics is one end of one session's metrics: a block holding
// the session-level values inline, the session's only entry in the
// registry. The engine updates the fields with single atomic operations;
// a nil *SessionMetrics costs one nil-check per emission point.
//
// A nil block means telemetry is disabled, on every method: Conn,
// Stream, SchedPicks, Counter and Gauge return nil (whose methods are
// no-ops) and Detach does nothing.
type SessionMetrics struct {
	fams       *Families
	sess, role string
	seq        uint64 // attach order

	ConnFailures      Counter
	Failovers         Counter
	FailoverCascades  Counter
	ReconnectAttempts Counter
	Reconnects        Counter
	RecoveryFailures  Counter
	SchedInvalid      Counter
	TraceEvents       Counter
	TraceDropped      Counter
	FlowctlLimits     Counter
	AckSolicits       Counter

	AckRTT     Histogram
	RecordSize Histogram

	ReorderDepth    Gauge
	ReorderBytes    Gauge
	RetransmitBytes Gauge
	ConnsOpen       Gauge
	StreamsOpen     Gauge

	// Bucket storage of the two histograms (len(RTTBuckets)+1 and
	// len(SizeBuckets)+1).
	rttCounts  [12]atomic.Uint64
	sizeCounts [7]atomic.Uint64

	mu      sync.Mutex
	conns   map[uint32]*ConnMetrics
	streams map[uint32]*StreamMetrics
	picks   map[string]*Counter
	riders  []sample // series of other families that live in this block
}

func newSessionMetrics() *SessionMetrics {
	sm := &SessionMetrics{
		conns:   make(map[uint32]*ConnMetrics),
		streams: make(map[uint32]*StreamMetrics),
		picks:   make(map[string]*Counter),
	}
	sm.AckRTT.bounds, sm.AckRTT.counts = RTTBuckets, sm.rttCounts[:len(RTTBuckets)+1]
	sm.RecordSize.bounds, sm.RecordSize.counts = SizeBuckets, sm.sizeCounts[:len(SizeBuckets)+1]
	return sm
}

// Session builds the block of one end of a session (role "client" or
// "server") and attaches it to the registry; Detach takes it out again.
func (f *Families) Session(sess, role string) *SessionMetrics {
	sm := newSessionMetrics()
	sm.fams, sm.sess, sm.role = f, sess, role
	r := f.reg
	r.mu.Lock()
	r.attachSeq++
	sm.seq = r.attachSeq
	r.sessions[sm] = struct{}{}
	r.mu.Unlock()
	return sm
}

// Detach removes the block from the registry: its series leave /metrics,
// the values stay readable. Safe on a nil receiver and idempotent.
func (sm *SessionMetrics) Detach() {
	if sm != nil {
		r := sm.fams.reg
		r.mu.Lock()
		delete(r.sessions, sm)
		r.mu.Unlock()
	}
}

// ConnMetrics is one connection's counter set, held by its session's
// block.
type ConnMetrics struct {
	RecordsSent     Counter
	RecordsReceived Counter
	BytesSent       Counter
	BytesReceived   Counter
	Retransmits     Counter
	AcksSent        Counter
	AcksReceived    Counter
	DupRecords      Counter
	FailedDecrypts  Counter
}

// StreamMetrics is one stream's counter set, held by its session's
// block.
type StreamMetrics struct {
	BytesSent     Counter
	BytesReceived Counter
}

// held returns m[key], one of sm's maps, adding a zero value on first
// use.
func held[K comparable, V any](sm *SessionMetrics, m map[K]*V, key K) *V {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	v, ok := m[key]
	if !ok {
		v = new(V)
		m[key] = v
	}
	return v
}

// Conn returns the counters of connID, adding them to the block on
// first use.
func (sm *SessionMetrics) Conn(connID uint32) *ConnMetrics {
	if sm == nil {
		return nil
	}
	return held(sm, sm.conns, connID)
}

// Stream returns the counters of streamID, adding them to the block on
// first use.
func (sm *SessionMetrics) Stream(streamID uint32) *StreamMetrics {
	if sm == nil {
		return nil
	}
	return held(sm, sm.streams, streamID)
}

// SchedPicks returns the pick counter of a scheduler policy, adding it
// to the block on first use.
func (sm *SessionMetrics) SchedPicks(policy string) *Counter {
	if sm == nil {
		return nil
	}
	return held(sm, sm.picks, policy)
}

// Counter returns a new series of another family (v's schema, these
// label values) that lives in the block and leaves /metrics with it: the
// health monitor's per-session tcpls_health_* series.
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

// appendSamples lists every series of the block in a stable order:
// session level, connections and streams by ID, policies by name, then
// the riders in the order they were added.
func (sm *SessionMetrics) appendSamples(dst []sample) []sample {
	fs := sm.fams
	base := []string{sm.sess, sm.role}
	labels := func(last string) []string { return append(base[:2:2], last) }
	for i, d := range sessionSeries {
		dst = append(dst, sample{fs.session[i], base, d.field(sm)})
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for _, id := range sortedKeys(sm.conns) {
		lv := labels(strconv.FormatUint(uint64(id), 10))
		for i, d := range connSeries {
			dst = append(dst, sample{fs.conn[i], lv, d.field(sm.conns[id])})
		}
	}
	for _, id := range sortedKeys(sm.streams) {
		lv := labels(strconv.FormatUint(uint64(id), 10))
		for i, d := range streamSeries {
			dst = append(dst, sample{fs.stream[i], lv, d.field(sm.streams[id])})
		}
	}
	for _, policy := range sortedKeys(sm.picks) {
		dst = append(dst, sample{fs.schedPicks, labels(policy), sm.picks[policy]})
	}
	return append(dst, sm.riders...)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
