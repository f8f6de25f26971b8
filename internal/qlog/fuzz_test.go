package qlog

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tcpls/internal/telemetry"
)

// FuzzParse drives the trace parser with arbitrary bytes — the qlog
// files it reads come from disk and CI artifacts, so hostile or
// truncated input is expected, not exceptional. The contract mirrors
// the PR-6 frame-parser fuzzer: never panic, every reject is a typed
// *ParseError, and every accepted trace round-trips — re-encoding the
// parsed events with telemetry.WriteEvents (the encoder every trace
// writer uses) and reparsing yields the identical event list, every
// field (the oracle that catches silent field loss in either the parser
// or the encoder).
func FuzzParse(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(telemetry.QlogHeader + "\n"))
	f.Add([]byte(telemetry.QlogHeader + "\n" +
		`{"time_us":12,"category":"transport","type":"record_sent","data":{"conn":0,"stream":2,"seq":41,"bytes":16368}}` + "\n"))
	// The retired flat schema is a seed that must be rejected, not a
	// second dialect.
	flat := []byte(`{"time_us":99,"name":"record_received","conn":3,"stream":2,"seq":7,"bytes":512}` + "\n")
	if _, err := Parse(bytes.NewReader(flat)); err == nil {
		f.Fatal("flat-schema line accepted")
	}
	f.Add(flat)
	f.Add([]byte(`{"time_us":5,"category":"span","type":"record_span","data":{"conn":1,"enq_us":1,"sealed_us":2,"written_us":3,"acked_us":4,"orig_conn":2,"retx":1}}`))
	f.Add([]byte(`{"time_us":1,"type":"conn_failed","data":{"conn":2}}` + "\n" +
		`{"time_us":2,"type":"retransmit","data":{"conn":0,"stream":1,"seq":9,"bytes":4096}}`))
	f.Add([]byte("{not json}\n"))
	f.Add([]byte(`{"time_us":1}`))                        // neither type nor data
	f.Add([]byte(`{"type":"x","data":{"conn":-1}}`))      // field out of range
	f.Add([]byte(`{"type":"x","data":{"bytes":1.5}}`))    // non-integer
	f.Add([]byte("\n\n" + telemetry.QlogHeader + "\n\n")) // blanks everywhere
	f.Add([]byte(`{"qlog_version":""}` + "\n"))           // header-ish but empty version
	f.Add(bytes.Repeat([]byte("a"), 4096))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Parse(bytes.NewReader(data))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse error is not a *ParseError: %T %v", err, err)
			}
			if pe.Line <= 0 {
				t.Fatalf("ParseError without a line number: %+v", pe)
			}
			return
		}
		// Accepted trace: re-encode and reparse. The second parse must
		// accept, and normalization must be idempotent.
		raw := make([]telemetry.Event, len(events))
		for i := range events {
			raw[i] = events[i].Event
		}
		var buf bytes.Buffer
		if werr := telemetry.WriteEvents(&buf, raw); werr != nil {
			t.Fatalf("WriteEvents of parsed events: %v", werr)
		}
		again, err := Parse(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("reparse of encoded trace: %v\ntrace:\n%s", err, buf.String())
		}
		if len(again) != len(events) {
			t.Fatalf("reparse event count %d, want %d", len(again), len(events))
		}
		for i := range events {
			a, b := events[i], again[i]
			a.Line, b.Line = 0, 0
			if a != b {
				t.Fatalf("event %d changed across encode/parse:\n first: %+v\n again: %+v", i, events[i], again[i])
			}
		}
	})
}
