package qlog

import (
	"fmt"
	"sort"
	"time"

	"tcpls/internal/health"
)

// PathCounts are per-connection record counters reconstructed from the
// trace. Sent/Received match the per-conn telemetry counters
// (tcpls_records_sent_total{conn=...}) exactly: Sent counts data
// records, failover retransmits, and control records; Received counts
// delivered records plus duplicates dropped by failover dedup.
type PathCounts struct {
	Conn         uint32 `json:"conn"`
	RecordsSent  uint64 `json:"records_sent"`
	RecordsRecv  uint64 `json:"records_received"`
	DataSent     uint64 `json:"data_sent"`
	CtlSent      uint64 `json:"ctl_sent"`
	CtlRecv      uint64 `json:"ctl_received"`
	Retransmits  uint64 `json:"retransmits"`
	DupDropped   uint64 `json:"dup_dropped"`
	AcksSent     uint64 `json:"acks_sent"`
	AcksReceived uint64 `json:"acks_received"`
	// BytesSent/BytesReceived count stream-data payload only, matching
	// tcpls_bytes_sent_total / tcpls_bytes_received_total.
	BytesSent     uint64 `json:"bytes_sent"`
	BytesReceived uint64 `json:"bytes_received"`
}

// Bucket is one timeseries sample for a path.
type Bucket struct {
	StartUS int64   `json:"start_us"`
	Value   float64 `json:"value"`
}

// PathSeries is a per-path timeseries (goodput in bytes/sec, or RTT in
// microseconds).
type PathSeries struct {
	Conn    uint32   `json:"conn"`
	Buckets []Bucket `json:"buckets"`
}

// FailoverGap is one reconstructed failover outage: from the engine
// declaring a connection failed to the first record flowing on another
// connection.
type FailoverGap struct {
	FailedConn  uint32 `json:"failed_conn"`
	TargetConn  uint32 `json:"target_conn,omitempty"`
	StartUS     int64  `json:"start_us"`
	EndUS       int64  `json:"end_us,omitempty"`
	DurationUS  int64  `json:"duration_us,omitempty"`
	Closed      bool   `json:"closed"`
	Retransmits int    `json:"retransmits"`
}

// SpanStats aggregates record-lifecycle spans.
type SpanStats struct {
	Count      int   `json:"count"`
	RetxSpans  int   `json:"retx_spans"`
	QueueP50US int64 `json:"queue_p50_us"` // enqueue -> sealed
	QueueP99US int64 `json:"queue_p99_us"`
	WireP50US  int64 `json:"wire_p50_us"` // written -> acked
	WireP99US  int64 `json:"wire_p99_us"`
	TotalP50US int64 `json:"total_p50_us"` // enqueue -> acked
	TotalP99US int64 `json:"total_p99_us"`
	TotalMaxUS int64 `json:"total_max_us"`
}

// JoinGap is the time from a join landing on a session (the
// join_accepted / join_fastpath mark on its new connection) to the
// first record flowing on that connection — the user-visible cost of
// bringing a path up. Fast-path joins should close their gap roughly
// one RTT sooner than two-flight joins.
type JoinGap struct {
	Conn       uint32 `json:"conn"`
	Fastpath   bool   `json:"fastpath"`
	StartUS    int64  `json:"start_us"`
	EndUS      int64  `json:"end_us,omitempty"`
	DurationUS int64  `json:"duration_us,omitempty"`
	Closed     bool   `json:"closed"`
}

// ResumptionStats counts the session-establishment marks on the trace:
// ticket lifecycle, resume and 0-RTT dispositions, and join fast-path
// usage. Counts are zero (and the section omitted from summaries) on
// traces that never touch resumption.
type ResumptionStats struct {
	TicketsIssued   int `json:"tickets_issued,omitempty"`
	TicketsReceived int `json:"tickets_received,omitempty"`
	TicketsReissued int `json:"tickets_reissued,omitempty"`
	ResumeAccepted  int `json:"resume_accepted,omitempty"`
	ResumeRejected  int `json:"resume_rejected,omitempty"`
	// ResumptionRate is accepted / (accepted + rejected), 0 when no
	// resumption was attempted.
	ResumptionRate float64   `json:"resumption_rate,omitempty"`
	EarlyAccepted  int       `json:"early_data_accepted,omitempty"`
	EarlyRejected  int       `json:"early_data_rejected,omitempty"`
	EarlyBytes     int       `json:"early_data_bytes,omitempty"`
	JoinFastpath   int       `json:"join_fastpath,omitempty"`
	JoinGaps       []JoinGap `json:"join_gaps,omitempty"`
}

// HealthMark is one continuous-diagnosis verdict transition on the
// trace timeline: a "health"-category event whose type is the verdict
// kind, Seq 1 for raises and 0 for clears, Bytes the headline evidence
// scalar the monitor attached.
type HealthMark struct {
	TimeUS int64  `json:"time_us"`
	Kind   string `json:"kind"`
	Raised bool   `json:"raised"`
	Conn   uint32 `json:"conn,omitempty"`
	Value  int    `json:"value,omitempty"`
}

// HealthStats is the health-category rollup: the verdict timeline plus
// which kinds were still raised when the trace ended. Open verdicts
// are informational, not violations — a session may legitimately die
// (or a flight ring wrap) mid-diagnosis.
type HealthStats struct {
	Events   int          `json:"events,omitempty"`
	Timeline []HealthMark `json:"timeline,omitempty"`
	Open     []string     `json:"open,omitempty"`
}

// ReorderStats summarizes reorder-buffer depth over the trace.
type ReorderStats struct {
	Samples int `json:"samples"`
	P50     int `json:"p50"`
	P90     int `json:"p90"`
	P99     int `json:"p99"`
	Max     int `json:"max"`
}

// Report is the full analysis of one trace.
type Report struct {
	Events     int             `json:"events"`
	StartUS    int64           `json:"start_us"`
	EndUS      int64           `json:"end_us"`
	Paths      []PathCounts    `json:"paths"`
	Goodput    []PathSeries    `json:"goodput,omitempty"`
	RTT        []PathSeries    `json:"rtt,omitempty"`
	Failovers  []FailoverGap   `json:"failovers,omitempty"`
	Resumption ResumptionStats `json:"resumption"`
	Health     HealthStats     `json:"health"`
	Spans      SpanStats       `json:"spans"`
	Reorder    ReorderStats    `json:"reorder"`
	Violations []string        `json:"violations,omitempty"`
}

// Options tunes Analyze.
type Options struct {
	// Interval is the timeseries bucket width (default 100ms).
	Interval time.Duration
	// MaxGap, when nonzero, flags failover gaps longer than it as
	// violations (the chaos-test assertion).
	MaxGap time.Duration
}

// Analyze reconstructs the Report from a parsed event stream. Events
// are expected in emission order (the sink and flight ring both
// preserve it).
func Analyze(events []Event, opts Options) *Report {
	interval := opts.Interval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	ivUS := interval.Microseconds()

	rep := &Report{Events: len(events)}
	counts := map[uint32]*PathCounts{}
	path := func(conn uint32) *PathCounts {
		pc := counts[conn]
		if pc == nil {
			pc = &PathCounts{Conn: conn}
			counts[conn] = pc
		}
		return pc
	}
	goodput := map[uint32]map[int64]float64{} // conn -> bucket start -> bytes
	rtts := map[uint32][]Bucket{}             // conn -> (time, rtt_us) samples
	var reorderDepths []int
	var queueDs, wireDs, totalDs []int64
	var gaps []FailoverGap
	open := -1 // index into gaps of the unclosed one, or -1

	// Join gaps: conn -> index into rep.Resumption.JoinGaps of the gap
	// still waiting for its first record.
	openJoins := map[uint32]int{}
	markJoin := func(ev *Event, fastpath bool) {
		if ev.Conn == 0 {
			// Listener-level marks (noteSessionTrace) carry conn 0; the
			// client-side mark on the actual connection opens the gap.
			return
		}
		if _, dup := openJoins[ev.Conn]; dup {
			// A fastpath join notes join_fastpath then join_accepted on
			// the same conn — keep the earliest mark.
			return
		}
		rep.Resumption.JoinGaps = append(rep.Resumption.JoinGaps,
			JoinGap{Conn: ev.Conn, Fastpath: fastpath, StartUS: ev.TimeUS})
		openJoins[ev.Conn] = len(rep.Resumption.JoinGaps) - 1
	}
	closeJoin := func(ev *Event) {
		idx, ok := openJoins[ev.Conn]
		if !ok {
			return
		}
		g := &rep.Resumption.JoinGaps[idx]
		g.EndUS = ev.TimeUS
		g.DurationUS = ev.TimeUS - g.StartUS
		g.Closed = true
		delete(openJoins, ev.Conn)
	}

	for i := range events {
		ev := &events[i]
		if ev.TimeUS < 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"line %d: negative time_us %d", ev.Line, ev.TimeUS))
		}
		if ev.TimeUS != 0 {
			if rep.StartUS == 0 || ev.TimeUS < rep.StartUS {
				rep.StartUS = ev.TimeUS
			}
			if ev.TimeUS > rep.EndUS {
				rep.EndUS = ev.TimeUS
			}
		}
		switch ev.Name {
		case "record_sent":
			pc := path(ev.Conn)
			pc.RecordsSent++
			pc.DataSent++
			pc.BytesSent += uint64(ev.Bytes)
			bump(goodput, ev.Conn, ev.TimeUS, ivUS, float64(ev.Bytes))
			closeGap(gaps, &open, ev, rep)
			closeJoin(ev)
		case "ctl_sent":
			pc := path(ev.Conn)
			pc.RecordsSent++
			pc.CtlSent++
			closeJoin(ev)
		case "ctl_received":
			pc := path(ev.Conn)
			pc.RecordsRecv++
			pc.CtlRecv++
			closeJoin(ev)
		case "retransmit":
			pc := path(ev.Conn)
			pc.RecordsSent++
			pc.Retransmits++
			if open >= 0 {
				gaps[open].Retransmits++
			}
			closeGap(gaps, &open, ev, rep)
			closeJoin(ev)
		case "record_received":
			pc := path(ev.Conn)
			pc.RecordsRecv++
			pc.BytesReceived += uint64(ev.Bytes)
			closeJoin(ev)
		case "dup_dropped":
			pc := path(ev.Conn)
			pc.RecordsRecv++
			pc.DupDropped++
			pc.BytesReceived += uint64(ev.Bytes)
			closeJoin(ev)
		case "ticket_issued":
			rep.Resumption.TicketsIssued++
		case "ticket_received":
			rep.Resumption.TicketsReceived++
		case "ticket_reissued":
			rep.Resumption.TicketsReissued++
		case "resume_accepted":
			rep.Resumption.ResumeAccepted++
		case "resume_rejected":
			rep.Resumption.ResumeRejected++
		case "early_data_accepted":
			rep.Resumption.EarlyAccepted++
			rep.Resumption.EarlyBytes += ev.Bytes
		case "early_data_rejected":
			rep.Resumption.EarlyRejected++
		case "join_fastpath":
			rep.Resumption.JoinFastpath++
			markJoin(ev, true)
		case "join_accepted":
			markJoin(ev, false)
		case "ack_sent":
			path(ev.Conn).AcksSent++
		case "ack_received":
			path(ev.Conn).AcksReceived++
		case "conn_failed":
			if open >= 0 {
				// Cascading failure before recovery: keep the earliest
				// start, note the newest failed conn.
				gaps[open].FailedConn = ev.Conn
			} else {
				gaps = append(gaps, FailoverGap{FailedConn: ev.Conn, StartUS: ev.TimeUS})
				open = len(gaps) - 1
			}
		case "record_span":
			rep.Spans.Count++
			if ev.Retx > 0 {
				rep.Spans.RetxSpans++
			}
			for _, leg := range [...]struct {
				key string
				us  int64
			}{{"enq_us", ev.EnqUS}, {"sealed_us", ev.SealedUS},
				{"written_us", ev.WrittenUS}, {"acked_us", ev.AckedUS}} {
				if leg.us < 0 {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"line %d: span %s is negative (%d)", ev.Line, leg.key, leg.us))
				}
			}
			if d, ok := legDelta(ev.EnqUS, ev.SealedUS); ok {
				queueDs = append(queueDs, d)
			} else if ev.EnqUS > 0 && ev.SealedUS > 0 {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"line %d: span enq_us %d after sealed_us %d", ev.Line, ev.EnqUS, ev.SealedUS))
			}
			if d, ok := legDelta(ev.WrittenUS, ev.AckedUS); ok {
				wireDs = append(wireDs, d)
				if ev.Retx == 0 {
					rtts[ev.Conn] = append(rtts[ev.Conn],
						Bucket{StartUS: ev.AckedUS, Value: float64(d)})
				}
			} else if ev.WrittenUS > 0 && ev.AckedUS > 0 {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"line %d: span written_us %d after acked_us %d", ev.Line, ev.WrittenUS, ev.AckedUS))
			}
			if d, ok := legDelta(ev.EnqUS, ev.AckedUS); ok {
				totalDs = append(totalDs, d)
			}
		case "reorder_depth":
			reorderDepths = append(reorderDepths, int(ev.Seq))
		default:
			// Health verdict transitions ride the same stream under
			// their kind name; they touch no path counters, so -check
			// reconciliation stays exact with them interleaved.
			if _, ok := health.KindFromString(ev.Name); ok {
				rep.Health.Events++
				rep.Health.Timeline = append(rep.Health.Timeline, HealthMark{
					TimeUS: ev.TimeUS,
					Kind:   ev.Name,
					Raised: ev.Seq == 1,
					Conn:   ev.Conn,
					Value:  ev.Bytes,
				})
			}
		}
	}

	// Which verdicts were still raised at trace end? "healthy" is the
	// all-clear transition, never an open condition.
	openVerdicts := map[string]bool{}
	for _, mk := range rep.Health.Timeline {
		if mk.Kind == "healthy" {
			continue
		}
		openVerdicts[mk.Kind] = mk.Raised
	}
	for kind, open := range openVerdicts {
		if open {
			rep.Health.Open = append(rep.Health.Open, kind)
		}
	}
	sort.Strings(rep.Health.Open)

	for conn, pc := range counts {
		_ = conn
		rep.Paths = append(rep.Paths, *pc)
	}
	sort.Slice(rep.Paths, func(i, j int) bool { return rep.Paths[i].Conn < rep.Paths[j].Conn })

	rep.Goodput = seriesFromBuckets(goodput, ivUS)
	rep.RTT = seriesFromSamples(rtts)
	rep.Failovers = gaps
	for i := range rep.Failovers {
		g := &rep.Failovers[i]
		if !g.Closed {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"failover gap on conn %d opened at %dus never closed", g.FailedConn, g.StartUS))
		} else if g.DurationUS < 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"failover gap on conn %d has negative duration %dus", g.FailedConn, g.DurationUS))
		} else if opts.MaxGap > 0 && g.DurationUS > opts.MaxGap.Microseconds() {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"failover gap on conn %d lasted %v, budget %v", g.FailedConn,
				time.Duration(g.DurationUS)*time.Microsecond, opts.MaxGap))
		}
	}

	if att := rep.Resumption.ResumeAccepted + rep.Resumption.ResumeRejected; att > 0 {
		rep.Resumption.ResumptionRate = float64(rep.Resumption.ResumeAccepted) / float64(att)
	}

	rep.Spans.QueueP50US = pctInt64(queueDs, 50)
	rep.Spans.QueueP99US = pctInt64(queueDs, 99)
	rep.Spans.WireP50US = pctInt64(wireDs, 50)
	rep.Spans.WireP99US = pctInt64(wireDs, 99)
	rep.Spans.TotalP50US = pctInt64(totalDs, 50)
	rep.Spans.TotalP99US = pctInt64(totalDs, 99)
	rep.Spans.TotalMaxUS = pctInt64(totalDs, 100)

	rep.Reorder.Samples = len(reorderDepths)
	sort.Ints(reorderDepths)
	rep.Reorder.P50 = pctInt(reorderDepths, 50)
	rep.Reorder.P90 = pctInt(reorderDepths, 90)
	rep.Reorder.P99 = pctInt(reorderDepths, 99)
	rep.Reorder.Max = pctInt(reorderDepths, 100)
	return rep
}

// closeGap ends the open failover gap when a record flows on a
// connection other than the failed one.
func closeGap(gaps []FailoverGap, open *int, ev *Event, rep *Report) {
	if *open < 0 {
		return
	}
	g := &gaps[*open]
	if ev.Conn == g.FailedConn {
		return
	}
	g.TargetConn = ev.Conn
	g.EndUS = ev.TimeUS
	g.DurationUS = ev.TimeUS - g.StartUS
	g.Closed = true
	*open = -1
}

// legDelta returns the duration between two stamped span legs; ok is
// false when either leg is unstamped (0) or invalid (negative, flagged
// by the caller) or the order is inverted.
func legDelta(from, to int64) (int64, bool) {
	if from <= 0 || to <= 0 || to < from {
		return 0, false
	}
	return to - from, true
}

// bump adds v into conn's bucket containing t.
func bump(m map[uint32]map[int64]float64, conn uint32, t, ivUS int64, v float64) {
	b := m[conn]
	if b == nil {
		b = map[int64]float64{}
		m[conn] = b
	}
	b[(t/ivUS)*ivUS] += v
}

// seriesFromBuckets converts bucketed byte counts to bytes/sec series.
func seriesFromBuckets(m map[uint32]map[int64]float64, ivUS int64) []PathSeries {
	var out []PathSeries
	for conn, b := range m {
		ps := PathSeries{Conn: conn}
		for start, bytes := range b {
			ps.Buckets = append(ps.Buckets,
				Bucket{StartUS: start, Value: bytes * 1e6 / float64(ivUS)})
		}
		sort.Slice(ps.Buckets, func(i, j int) bool { return ps.Buckets[i].StartUS < ps.Buckets[j].StartUS })
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Conn < out[j].Conn })
	return out
}

func seriesFromSamples(m map[uint32][]Bucket) []PathSeries {
	var out []PathSeries
	for conn, samples := range m {
		out = append(out, PathSeries{Conn: conn, Buckets: samples})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Conn < out[j].Conn })
	return out
}

// pctInt64 returns the p-th percentile (nearest-rank) of sorted-or-not
// values; 0 when empty. p=100 is the max.
func pctInt64(vals []int64, p int) int64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rankIdx(len(sorted), p)]
}

// pctInt expects vals already sorted.
func pctInt(vals []int, p int) int {
	if len(vals) == 0 {
		return 0
	}
	return vals[rankIdx(len(vals), p)]
}

func rankIdx(n, p int) int {
	idx := n*p/100 - 1
	if n*p%100 != 0 {
		idx++
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
