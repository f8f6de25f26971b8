package telemetry

// Stats is the engine's raw counter block: cumulative since the session
// started, kept by the engine itself and so populated with telemetry
// off. A ConnSnapshot carries the same nine per connection.
type Stats struct {
	RecordsSent       uint64 `json:"records_sent,omitempty"`
	RecordsReceived   uint64 `json:"records_received,omitempty"`
	BytesSent         uint64 `json:"bytes_sent,omitempty"`
	BytesReceived     uint64 `json:"bytes_received,omitempty"`
	AcksSent          uint64 `json:"acks_sent,omitempty"`
	AcksReceived      uint64 `json:"acks_received,omitempty"`
	Retransmits       uint64 `json:"retransmits,omitempty"`
	DupRecordsDropped uint64 `json:"dup_records_dropped,omitempty"`
	FailedDecrypts    uint64 `json:"failed_decrypts,omitempty"`
}

// Snapshot is the observable state of one end of a session at one
// instant: the value Session.Snapshot returns, /debug/tcpls marshals,
// tcpls-top decodes and the health monitor samples. Every field — its
// unit, where it comes from, whether it needs telemetry on — is listed
// in DESIGN.md §10.1 and nowhere else. Times are microseconds.
type Snapshot struct {
	// The wrapper's envelope; zero from a bare engine.
	Role         string `json:"role"`
	Closed       bool   `json:"closed,omitempty"`
	Recovering   bool   `json:"recovering,omitempty"`
	CookiesLeft  int    `json:"cookies_left"`
	FlightEvents int    `json:"flight_events"`
	FlightTotal  uint64 `json:"flight_total"`

	// Engine gauges.
	Scheduler           string `json:"scheduler"`
	ConnsLive           int    `json:"conns_live"`
	StreamsOpen         int    `json:"streams_open"`
	ReorderDepth        int    `json:"reorder_depth"`
	ReorderBytes        int    `json:"reorder_bytes"`
	ReorderBytesPeak    int    `json:"reorder_bytes_peak"`
	RetransmitBytes     int    `json:"retransmit_bytes"`
	RetransmitBytesPeak int    `json:"retransmit_bytes_peak"`
	MemoryBytes         int    `json:"memory_bytes"`

	Stats

	// Counters of the session's metrics block: 0 with telemetry off.
	ConnFailures      uint64            `json:"conn_failures,omitempty"`
	Failovers         uint64            `json:"failovers,omitempty"`
	FailoverCascades  uint64            `json:"failover_cascades,omitempty"`
	ReconnectAttempts uint64            `json:"reconnect_attempts,omitempty"`
	Reconnects        uint64            `json:"reconnects,omitempty"`
	RecoveryFailures  uint64            `json:"recovery_failures,omitempty"`
	SchedInvalid      uint64            `json:"sched_invalid,omitempty"`
	TraceEvents       uint64            `json:"trace_events,omitempty"`
	TraceDropped      uint64            `json:"trace_dropped,omitempty"`
	FlowctlLimits     uint64            `json:"flowctl_limits,omitempty"`
	AckSolicits       uint64            `json:"ack_solicits,omitempty"`
	AckRTTCount       uint64            `json:"ack_rtt_count,omitempty"`
	AckRTTSumUS       int64             `json:"ack_rtt_sum_us,omitempty"`
	SchedPicks        map[string]uint64 `json:"sched_picks,omitempty"`

	// One row per connection and per stream, in ascending ID order.
	Conns   []ConnSnapshot   `json:"conns"`
	Streams []StreamSnapshot `json:"streams"`
}

// ConnSnapshot is one connection's row of a Snapshot. Its Stats come
// from the connection's metrics block: 0 with telemetry off.
type ConnSnapshot struct {
	ID           uint32  `json:"id"`
	Failed       bool    `json:"failed,omitempty"`
	Closed       bool    `json:"closed,omitempty"`
	RecvPaused   bool    `json:"recv_paused,omitempty"`
	QueuedBytes  int     `json:"queued_bytes,omitempty"`
	LastRecvUS   int64   `json:"last_recv_us,omitempty"`
	SRTTUS       int64   `json:"srtt_us,omitempty"`
	RTTVarUS     int64   `json:"rttvar_us,omitempty"`
	DeliveryRate float64 `json:"delivery_rate_bps,omitempty"`
	InFlight     uint64  `json:"in_flight_bytes,omitempty"`
	Losses       uint64  `json:"losses,omitempty"`

	Stats
}

// StreamSnapshot is one stream's row of a Snapshot.
type StreamSnapshot struct {
	ID            uint32 `json:"id"`
	Conn          uint32 `json:"conn"`
	Coupled       bool   `json:"coupled,omitempty"`
	Parked        bool   `json:"parked,omitempty"`
	FinQueued     bool   `json:"fin_queued,omitempty"`
	FinSent       bool   `json:"fin_sent,omitempty"`
	PeerFin       bool   `json:"peer_fin,omitempty"`
	RecvBlocked   bool   `json:"recv_blocked,omitempty"`
	AckSolicited  bool   `json:"ack_solicited,omitempty"`
	PendingBytes  int    `json:"pending_bytes,omitempty"`
	RetransmitQ   int    `json:"retransmit_queue,omitempty"`
	UnackedBytes  int    `json:"unacked_bytes,omitempty"`
	RecvBuffered  int    `json:"recv_buffered,omitempty"`
	NextSendSeq   uint64 `json:"next_send_seq"`
	PeerAckedSeq  uint64 `json:"peer_acked_seq"`
	BytesSent     uint64 `json:"bytes_sent,omitempty"`
	BytesReceived uint64 `json:"bytes_received,omitempty"`
}

// Reset empties s for a refill, keeping the rows' and the map's storage.
func (s *Snapshot) Reset() {
	clear(s.SchedPicks)
	*s = Snapshot{Conns: s.Conns[:0], Streams: s.Streams[:0], SchedPicks: s.SchedPicks}
}

// Snapshot copies the block's session-level counters into dst. Like the
// two below it, safe on a nil receiver: dst keeps its zeroes.
func (sm *SessionMetrics) Snapshot(dst *Snapshot) {
	if sm == nil {
		return
	}
	dst.ConnFailures = sm.ConnFailures.Load()
	dst.Failovers = sm.Failovers.Load()
	dst.FailoverCascades = sm.FailoverCascades.Load()
	dst.ReconnectAttempts = sm.ReconnectAttempts.Load()
	dst.Reconnects = sm.Reconnects.Load()
	dst.RecoveryFailures = sm.RecoveryFailures.Load()
	dst.SchedInvalid = sm.SchedInvalid.Load()
	dst.TraceEvents = sm.TraceEvents.Load()
	dst.TraceDropped = sm.TraceDropped.Load()
	dst.FlowctlLimits = sm.FlowctlLimits.Load()
	dst.AckSolicits = sm.AckSolicits.Load()
	dst.AckRTTCount = sm.AckRTT.Count()
	dst.AckRTTSumUS = int64(sm.AckRTT.Sum() * 1e6)
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if dst.SchedPicks == nil && len(sm.picks) > 0 {
		dst.SchedPicks = make(map[string]uint64, len(sm.picks))
	}
	for policy, c := range sm.picks {
		dst.SchedPicks[policy] = c.Load()
	}
}

// Snapshot copies the connection's counters into dst.
func (cm *ConnMetrics) Snapshot(dst *Stats) {
	if cm == nil {
		return
	}
	*dst = Stats{
		RecordsSent:       cm.RecordsSent.Load(),
		RecordsReceived:   cm.RecordsReceived.Load(),
		BytesSent:         cm.BytesSent.Load(),
		BytesReceived:     cm.BytesReceived.Load(),
		AcksSent:          cm.AcksSent.Load(),
		AcksReceived:      cm.AcksReceived.Load(),
		Retransmits:       cm.Retransmits.Load(),
		DupRecordsDropped: cm.DupRecords.Load(),
		FailedDecrypts:    cm.FailedDecrypts.Load(),
	}
}

// Snapshot copies the stream's counters into dst.
func (stm *StreamMetrics) Snapshot(dst *StreamSnapshot) {
	if stm == nil {
		return
	}
	dst.BytesSent = stm.BytesSent.Load()
	dst.BytesReceived = stm.BytesReceived.Load()
}
