package qlog

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tcpls/internal/telemetry"
)

type tev = telemetry.Event

// parsed wraps hand-built events the way Parse returns them, numbering
// the lines from 1.
func parsed(evs ...telemetry.Event) []Event {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		out[i] = Event{Event: ev, Line: i + 1}
	}
	return out
}

const qlogSample = `{"qlog_version":"0.3","qlog_format":"NDJSON","title":"tcpls"}
{"time_us":1000,"category":"transport","type":"record_sent","data":{"conn":0,"stream":2,"seq":0,"bytes":100}}
{"time_us":2000,"category":"transport","type":"ack_received","data":{"conn":0,"stream":2,"seq":1,"bytes":0}}
`

const flatSample = `{"time_us":1000,"name":"record_sent","conn":0,"stream":2,"seq":0,"bytes":100}
{"time_us":2000,"name":"ack_received","conn":0,"stream":2,"seq":1,"bytes":0}
`

func TestParse(t *testing.T) {
	events, err := Parse(strings.NewReader(qlogSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(events))
	}
	if events[0].Name != "record_sent" || events[0].Conn != 0 ||
		events[0].Stream != 2 || events[0].Bytes != 100 || events[0].TimeUS != 1000 {
		t.Fatalf("event 0 mismatch: %+v", events[0])
	}
	if events[1].Name != "ack_received" || events[1].Seq != 1 || events[1].Line != 3 {
		t.Fatalf("event 1 mismatch: %+v", events[1])
	}
}

// TestParseRejectsOtherDialects: there is one schema. The retired flat
// dialect, and anything else that is JSON but not an event, is a typed
// reject carrying its line.
func TestParseRejectsOtherDialects(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		line     int
	}{
		{"flat", flatSample, 1},
		{"flat after qlog", qlogSample + flatSample, 4},
		{"type without data", `{"time_us":1,"type":"record_sent","conn":1}`, 1},
		{"data without type", `{"time_us":1,"data":{"conn":1}}`, 1},
	} {
		events, err := Parse(strings.NewReader(tc.in))
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: got %d events and error %v, want *ParseError", tc.name, len(events), err)
		}
		if pe.Line != tc.line {
			t.Fatalf("%s: error on line %d, want %d", tc.name, pe.Line, tc.line)
		}
	}
}

func TestParseConcatenatedDumps(t *testing.T) {
	// A live trace followed by a flight dump: two headers, both skipped.
	events, err := Parse(strings.NewReader(qlogSample + qlogSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(events))
	}
}

func TestParseMalformedLine(t *testing.T) {
	_, err := Parse(strings.NewReader(qlogSample + "{oops\n"))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("got %v, want *ParseError", err)
	}
	if pe.Line != 4 {
		t.Fatalf("error on line %d, want 4", pe.Line)
	}
}

func TestAnalyzeCounts(t *testing.T) {
	events := parsed(
		tev{TimeUS: 1000, Name: "record_sent", Conn: 0, Bytes: 100},
		tev{TimeUS: 1100, Name: "ctl_sent", Conn: 0, Bytes: 10},
		tev{TimeUS: 1200, Name: "record_sent", Conn: 1, Bytes: 200},
		tev{TimeUS: 1300, Name: "retransmit", Conn: 1, Bytes: 100},
		tev{TimeUS: 1400, Name: "record_received", Conn: 0, Bytes: 50},
		tev{TimeUS: 1500, Name: "dup_dropped", Conn: 0, Bytes: 50},
		tev{TimeUS: 1600, Name: "ack_sent", Conn: 0},
		tev{TimeUS: 1700, Name: "ack_received", Conn: 1},
		tev{TimeUS: 1800, Name: "ctl_received", Conn: 0, Seq: 4, Bytes: 9},
	)
	rep := Analyze(events, Options{})
	if len(rep.Paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(rep.Paths))
	}
	p0, p1 := rep.Paths[0], rep.Paths[1]
	if p0.RecordsSent != 2 || p0.DataSent != 1 || p0.CtlSent != 1 {
		t.Fatalf("conn 0 sent counts: %+v", p0)
	}
	if p0.RecordsRecv != 3 || p0.DupDropped != 1 || p0.CtlRecv != 1 || p0.AcksSent != 1 {
		t.Fatalf("conn 0 recv counts: %+v", p0)
	}
	if p0.BytesReceived != 100 { // ctl payloads don't count as stream bytes
		t.Fatalf("conn 0 bytes received %d, want 100", p0.BytesReceived)
	}
	if p1.RecordsSent != 2 || p1.Retransmits != 1 || p1.AcksReceived != 1 {
		t.Fatalf("conn 1 counts: %+v", p1)
	}
}

func TestAnalyzeFailoverGap(t *testing.T) {
	events := parsed(
		tev{TimeUS: 1000, Name: "record_sent", Conn: 0, Bytes: 100},
		tev{TimeUS: 2000, Name: "conn_failed", Conn: 0},
		tev{TimeUS: 2500, Name: "failover_started", Conn: 0},
		tev{TimeUS: 3500, Name: "retransmit", Conn: 1, Bytes: 100},
		tev{TimeUS: 4000, Name: "record_sent", Conn: 1, Bytes: 100},
	)
	rep := Analyze(events, Options{})
	if len(rep.Failovers) != 1 {
		t.Fatalf("got %d gaps, want 1", len(rep.Failovers))
	}
	g := rep.Failovers[0]
	if !g.Closed || g.FailedConn != 0 || g.TargetConn != 1 {
		t.Fatalf("gap: %+v", g)
	}
	if g.DurationUS != 1500 {
		t.Fatalf("gap duration %dus, want 1500", g.DurationUS)
	}
	if g.Retransmits != 1 {
		t.Fatalf("gap retransmits %d, want 1", g.Retransmits)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}

	// Budget assertion: 1.5ms gap fails a 1ms budget.
	rep = Analyze(events, Options{MaxGap: time.Millisecond})
	if len(rep.Violations) != 1 {
		t.Fatalf("budget violation not flagged: %v", rep.Violations)
	}
}

func TestAnalyzeUnclosedGap(t *testing.T) {
	events := parsed(
		tev{TimeUS: 1000, Name: "conn_failed", Conn: 0},
		tev{TimeUS: 2000, Name: "record_sent", Conn: 0, Bytes: 1}, // same conn: not recovery
	)
	rep := Analyze(events, Options{})
	if len(rep.Failovers) != 1 || rep.Failovers[0].Closed {
		t.Fatalf("gap should stay open: %+v", rep.Failovers)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("unclosed gap not flagged as violation")
	}
}

func TestAnalyzeSpans(t *testing.T) {
	events := parsed(
		tev{TimeUS: 5000, Name: "record_span", Conn: 0,
			EnqUS: 1000, SealedUS: 1100, WrittenUS: 1200, AckedUS: 2200},
		tev{TimeUS: 6000, Name: "record_span", Conn: 0, Retx: 1,
			EnqUS: 1000, SealedUS: 1100, WrittenUS: 1500, AckedUS: 3500},
	)
	rep := Analyze(events, Options{})
	if rep.Spans.Count != 2 || rep.Spans.RetxSpans != 1 {
		t.Fatalf("span counts: %+v", rep.Spans)
	}
	if rep.Spans.WireP99US != 2000 {
		t.Fatalf("wire p99 %dus, want 2000", rep.Spans.WireP99US)
	}
	// Only the clean (retx=0) span feeds the RTT series.
	if len(rep.RTT) != 1 || len(rep.RTT[0].Buckets) != 1 || rep.RTT[0].Buckets[0].Value != 1000 {
		t.Fatalf("rtt series: %+v", rep.RTT)
	}
}

// TestAnalyzeSpanViolations: -check's span rules. 0 means "leg not
// stamped" and is never a violation; an inverted pair or a negative
// timestamp is, and names its line.
func TestAnalyzeSpanViolations(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   tev
		want string // substring of the one violation; "" = none
	}{
		{"clean", tev{TimeUS: 5000, Name: "record_span",
			EnqUS: 1000, SealedUS: 1100, WrittenUS: 1200, AckedUS: 2200}, ""},
		{"write leg not stamped", tev{TimeUS: 5000, Name: "record_span",
			EnqUS: 1000, SealedUS: 1100, AckedUS: 2200}, ""},
		{"inverted wire leg", tev{TimeUS: 5000, Name: "record_span",
			EnqUS: 1000, SealedUS: 1100, WrittenUS: 2200, AckedUS: 1200}, "line 1: span written_us 2200 after acked_us"},
		{"negative leg", tev{TimeUS: 5000, Name: "record_span",
			EnqUS: 1000, SealedUS: 1100, WrittenUS: -62135596800000000, AckedUS: 2200}, "line 1: span written_us is negative"},
		{"negative time_us", tev{TimeUS: -1, Name: "record_sent"}, "line 1: negative time_us -1"},
	} {
		rep := Analyze(parsed(tc.ev), Options{})
		switch {
		case tc.want == "" && len(rep.Violations) != 0:
			t.Errorf("%s: unexpected violations %v", tc.name, rep.Violations)
		case tc.want != "" && (len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], tc.want)):
			t.Errorf("%s: violations %v, want one containing %q", tc.name, rep.Violations, tc.want)
		}
	}
}

func TestAnalyzeReorderPercentiles(t *testing.T) {
	var events []Event
	for i := 1; i <= 100; i++ {
		events = append(events, Event{Event: tev{TimeUS: int64(i * 1000), Name: "reorder_depth", Seq: uint64(i)}})
	}
	rep := Analyze(events, Options{})
	if rep.Reorder.Samples != 100 {
		t.Fatalf("samples %d", rep.Reorder.Samples)
	}
	if rep.Reorder.P50 != 50 || rep.Reorder.P90 != 90 || rep.Reorder.P99 != 99 || rep.Reorder.Max != 100 {
		t.Fatalf("percentiles: %+v", rep.Reorder)
	}
}

func TestAnalyzeGoodputSeries(t *testing.T) {
	events := parsed(
		tev{TimeUS: 0, Name: "record_sent", Conn: 0, Bytes: 1000},
		tev{TimeUS: 50_000, Name: "record_sent", Conn: 0, Bytes: 1000},
		tev{TimeUS: 150_000, Name: "record_sent", Conn: 0, Bytes: 500},
	)
	rep := Analyze(events, Options{Interval: 100 * time.Millisecond})
	if len(rep.Goodput) != 1 {
		t.Fatalf("series: %+v", rep.Goodput)
	}
	b := rep.Goodput[0].Buckets
	if len(b) != 2 {
		t.Fatalf("buckets: %+v", b)
	}
	// 2000 bytes in a 100ms bucket = 20000 B/s.
	if b[0].Value != 20000 || b[1].Value != 5000 {
		t.Fatalf("goodput values: %+v", b)
	}
}

const resumeSample = `{"qlog_version":"0.3","qlog_format":"NDJSON","title":"tcpls"}
{"time_us":1000,"category":"transport","type":"ticket_issued","data":{"conn":0,"bytes":64}}
{"time_us":1100,"category":"transport","type":"resume_accepted","data":{"conn":0}}
{"time_us":1200,"category":"transport","type":"ticket_reissued","data":{"conn":0}}
{"time_us":1300,"category":"transport","type":"resume_rejected","data":{"conn":0}}
{"time_us":1400,"category":"transport","type":"early_data_accepted","data":{"conn":0,"stream":2,"bytes":512}}
{"time_us":1500,"category":"transport","type":"early_data_rejected","data":{"conn":0}}
{"time_us":2000,"category":"transport","type":"join_fastpath","data":{"conn":3,"bytes":100}}
{"time_us":2250,"category":"transport","type":"record_sent","data":{"conn":3,"stream":2,"seq":0,"bytes":100}}
{"time_us":3000,"category":"transport","type":"join_accepted","data":{"conn":5}}
{"time_us":3600,"category":"transport","type":"record_sent","data":{"conn":5,"stream":4,"seq":0,"bytes":80}}
{"time_us":4000,"category":"transport","type":"join_fastpath","data":{"conn":0}}
`

func TestAnalyzeResumption(t *testing.T) {
	events, err := Parse(strings.NewReader(resumeSample))
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(events, Options{})
	r := rep.Resumption
	if r.TicketsIssued != 1 || r.TicketsReissued != 1 {
		t.Fatalf("ticket counts: %+v", r)
	}
	if r.ResumeAccepted != 1 || r.ResumeRejected != 1 || r.ResumptionRate != 0.5 {
		t.Fatalf("resume counts: %+v", r)
	}
	if r.EarlyAccepted != 1 || r.EarlyRejected != 1 || r.EarlyBytes != 512 {
		t.Fatalf("early-data counts: %+v", r)
	}
	// Two join fastpath marks: one on a real conn, one listener-level
	// (conn 0) that must not open a gap.
	if r.JoinFastpath != 2 {
		t.Fatalf("join_fastpath = %d, want 2", r.JoinFastpath)
	}
	if len(r.JoinGaps) != 2 {
		t.Fatalf("join gaps = %d, want 2", len(r.JoinGaps))
	}
	fast, slow := r.JoinGaps[0], r.JoinGaps[1]
	if !fast.Fastpath || !fast.Closed || fast.DurationUS != 250 {
		t.Fatalf("fastpath gap: %+v", fast)
	}
	if slow.Fastpath || !slow.Closed || slow.DurationUS != 600 {
		t.Fatalf("two-flight gap: %+v", slow)
	}
	// Resumption marks are informational: -check must stay exact, so no
	// violations from this trace.
	if len(rep.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
}
