package telemetry

import (
	"bufio"
	"io"
	"strconv"
)

// Event is the trace event: the value the engine builds, the flight
// ring and the sink hold, the encoder writes and internal/qlog parses
// back. The schema — event names, what Seq and Bytes carry for each,
// the category table, the wire framing — is DESIGN.md §10 and nowhere
// else. Plain value data (Name points at a constant string), 88 bytes:
// passing or storing one allocates nothing.
type Event struct {
	TimeUS int64  `json:"-"` // Unix microseconds; time_us on the wire
	Name   string `json:"-"` // type on the wire
	Conn   uint32 `json:"conn"`
	Stream uint32 `json:"stream"`
	Seq    uint64 `json:"seq"`
	Bytes  int    `json:"bytes"`

	// Span legs and provenance (record_span only). Legs are Unix
	// microseconds; 0 = leg not stamped.
	EnqUS     int64  `json:"enq_us"`
	SealedUS  int64  `json:"sealed_us"`
	WrittenUS int64  `json:"written_us"`
	AckedUS   int64  `json:"acked_us"`
	OrigConn  uint32 `json:"orig_conn"`
	Retx      int32  `json:"retx"`
}

// FlightEvent is the flight ring's entry under the name bench/ builds
// it by.
type FlightEvent = Event

// QlogHeader is the first line of every trace.
const QlogHeader = `{"qlog_version":"0.3","qlog_format":"NDJSON","title":"tcpls"}`

// category is the qlog category of an event name: a function of the
// name, never stored. Every name the engine, the wrapper and the health
// monitor emit has a case here (TestEveryTracedNameHasCategory walks the
// source for them); "session" is for names nobody has listed yet.
func category(name string) string {
	switch name {
	case "record_sent", "record_received", "ack_sent", "ack_received",
		"ack_solicited", "ack_requested", "dup_dropped", "ctl_sent",
		"ctl_received", "flowctl_limit":
		return "transport"
	case "record_span":
		return "span"
	case "conn_failed", "failover_started", "failover_notified",
		"failover_cascade", "failover_error", "sync_sent", "sync_received",
		"retransmit", "reconnect_attempt", "reconnect_ok", "recovery_failed":
		return "recovery"
	case "sched_pick", "sched_invalid", "reorder_depth":
		return "scheduling"
	case "conn_added", "stream_attached", "stream_fin", "cookie_issued",
		"cookie_consumed", "cookie_received", "join_accepted",
		"join_fastpath", "join_rejected", "ticket_issued",
		"ticket_received", "ticket_reissued", "resume_accepted",
		"resume_rejected", "early_data_accepted", "early_data_rejected":
		return "connectivity"
	case "healthy", "stall_suspected", "retransmit_storm", "memory_growth",
		"path_asymmetry", "resume_failure_spike", "admission_pressure":
		return "health"
	default:
		return "session"
	}
}

// appendEvent appends ev as one trace line, newline included, to dst.
// It is the only encoder: the live Sink, Flight.Dump and the fleet's
// artifacts all write through it, and qlog.Parse reads every field
// back (FuzzParse holds the two to that).
func appendEvent(dst []byte, ev *Event) []byte {
	dst = append(dst, `{"time_us":`...)
	dst = strconv.AppendInt(dst, ev.TimeUS, 10)
	dst = append(dst, `,"category":"`...)
	dst = append(dst, category(ev.Name)...)
	dst = append(dst, `","type":`...)
	dst = appendJSONString(dst, ev.Name)
	dst = append(dst, `,"data":{"conn":`...)
	dst = strconv.AppendUint(dst, uint64(ev.Conn), 10)
	dst = append(dst, `,"stream":`...)
	dst = strconv.AppendUint(dst, uint64(ev.Stream), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"bytes":`...)
	dst = strconv.AppendInt(dst, int64(ev.Bytes), 10)
	dst = appendNonZero(dst, `,"enq_us":`, ev.EnqUS)
	dst = appendNonZero(dst, `,"sealed_us":`, ev.SealedUS)
	dst = appendNonZero(dst, `,"written_us":`, ev.WrittenUS)
	dst = appendNonZero(dst, `,"acked_us":`, ev.AckedUS)
	dst = appendNonZero(dst, `,"orig_conn":`, int64(ev.OrigConn))
	dst = appendNonZero(dst, `,"retx":`, int64(ev.Retx))
	return append(dst, "}}\n"...)
}

func appendNonZero(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendJSONString quotes s as a JSON string. Event names are constant
// identifiers, so the escapes only matter to a name that came from a
// parsed file.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// WriteEvents writes a complete trace to w: the header line, then one
// line per event.
func WriteEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 32<<10)
	// bufio keeps the first write error and Flush returns it.
	_, _ = bw.WriteString(QlogHeader + "\n")
	for i := range events {
		_, _ = bw.Write(appendEvent(bw.AvailableBuffer(), &events[i]))
	}
	return bw.Flush()
}
