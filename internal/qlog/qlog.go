// Package qlog parses and analyzes TCPLS traces: the qlog lines written
// by Session.TraceJSON, by flight-recorder dumps (Session.DumpFlight)
// and by the fleet's failing-seed artifacts, all one schema (DESIGN.md
// §10). The analyzer reconstructs per-path goodput and RTT timeseries,
// failover gap durations, and reorder-depth percentiles from the event
// stream — the offline half of the paper's observability story.
package qlog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"tcpls/internal/telemetry"
)

// Event is one parsed trace event: the event as it was written, plus
// where in the input it stood.
type Event struct {
	telemetry.Event
	Line int // 1-based source line, for diagnostics
}

// header mirrors the qlog NDJSON header line.
type header struct {
	QlogVersion string `json:"qlog_version"`
}

// envelope is the top level of one event line; data decodes straight
// into the event.
type envelope struct {
	TimeUS int64            `json:"time_us"`
	Type   string           `json:"type"`
	Data   *telemetry.Event `json:"data"`
}

// ParseError reports an unparseable or structurally invalid line.
type ParseError struct {
	Line int
	Text string
	Err  error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d: %v", e.Line, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// errNotEvent rejects a JSON object that is not an event of the one
// schema — the retired flat dialect ("name" and top-level fields)
// included.
var errNotEvent = errors.New(`event needs a "type" and a "data" object`)

// Parse reads a full trace from r. Header lines (qlog framing) are
// recognized and skipped wherever they appear — concatenating a live
// trace and a flight dump is legal input. Blank lines are ignored.
// Malformed lines abort with a *ParseError carrying the line number.
func Parse(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.Contains(line, `"qlog_version"`) {
			var h header
			if err := json.Unmarshal([]byte(line), &h); err == nil && h.QlogVersion != "" {
				continue
			}
		}
		var env envelope
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			return events, &ParseError{Line: lineNo, Text: line, Err: err}
		}
		if env.Type == "" || env.Data == nil {
			return events, &ParseError{Line: lineNo, Text: line, Err: errNotEvent}
		}
		ev := Event{Event: *env.Data, Line: lineNo}
		ev.TimeUS, ev.Name = env.TimeUS, env.Type
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		// Scanner-level failures (a line past the 16 MiB cap, a reader
		// error) are rejects like any other: typed, with the position.
		return events, &ParseError{Line: lineNo + 1, Err: err}
	}
	return events, nil
}
