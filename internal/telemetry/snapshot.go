package telemetry

// Stats are the engine's nine record counters of one connection,
// cumulative since it was added; a session's Stats are their sum over
// its connections.
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

// Add adds o's counts to s.
func (s *Stats) Add(o *Stats) {
	s.RecordsSent += o.RecordsSent
	s.RecordsReceived += o.RecordsReceived
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.AcksSent += o.AcksSent
	s.AcksReceived += o.AcksReceived
	s.Retransmits += o.Retransmits
	s.DupRecordsDropped += o.DupRecordsDropped
	s.FailedDecrypts += o.FailedDecrypts
}

// Counters are the session-level counters the engine keeps beside its
// connections' Stats: cumulative since the session started, under the
// engine's owner's lock.
type Counters struct {
	ConnFailures     uint64 `json:"conn_failures,omitempty"`
	Failovers        uint64 `json:"failovers,omitempty"`
	FailoverCascades uint64 `json:"failover_cascades,omitempty"`
	SchedInvalid     uint64 `json:"sched_invalid,omitempty"`
	FlowctlLimits    uint64 `json:"flowctl_limits,omitempty"`
	AckSolicits      uint64 `json:"ack_solicits,omitempty"`
	// AckRTT holds the Karn-filtered ack RTT samples in seconds over
	// RTTBuckets; RecordSize the payload bytes of each sealed data
	// record over SizeBuckets.
	AckRTT     Hist `json:"ack_rtt"`
	RecordSize Hist `json:"record_size"`
}

// Hist is a fixed-bucket histogram with a single owner: Counts[i]
// observations fell at or below bound i of its bucket set (RTTBuckets
// or SizeBuckets), Counts[len(bounds)] above every bound, and Sum adds
// them up.
type Hist struct {
	Counts [12]uint64 `json:"counts"`
	Sum    float64    `json:"sum"`
}

// Observe records v against bounds.
func (h *Hist) Observe(bounds []float64, v float64) {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Sum += v
}

// Count returns the number of observations.
func (h *Hist) Count() (n uint64) {
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Snapshot is the observable state of one end of a session at one
// instant: the value Session.Snapshot returns, /debug/tcpls marshals,
// /metrics renders, tcpls-top decodes and the health monitor samples.
// Every field — its unit and where it comes from — is listed in
// DESIGN.md §10.1 and nowhere else. Times are microseconds.
type Snapshot struct {
	// The envelope, from the wrapper (the driver fills Recovering and
	// CookiesLeft); zero from a bare engine.
	Role         string `json:"role"`
	Closed       bool   `json:"closed,omitempty"`
	Recovering   bool   `json:"recovering,omitempty"`
	CookiesLeft  int    `json:"cookies_left"`
	FlightEvents int    `json:"flight_events"`
	FlightTotal  uint64 `json:"flight_total"`
	TraceEvents  uint64 `json:"trace_events,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`

	// The driver's recovery counters; zero from a bare engine.
	ReconnectAttempts uint64 `json:"reconnect_attempts,omitempty"`
	Reconnects        uint64 `json:"reconnects,omitempty"`
	RecoveryFailures  uint64 `json:"recovery_failures,omitempty"`

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

	// Engine counters: the connections' Stats summed, the session-level
	// ones, and the coupled records each scheduler policy routed.
	Stats
	Counters
	SchedPicks map[string]uint64 `json:"sched_picks,omitempty"`

	// One row per connection and per stream, in ascending ID order.
	Conns   []ConnSnapshot   `json:"conns"`
	Streams []StreamSnapshot `json:"streams"`
}

// ConnSnapshot is one connection's row of a Snapshot. The rows' Stats
// sum to the Snapshot's.
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
