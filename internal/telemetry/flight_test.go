package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestFlightRingWrap(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 6; i++ {
		f.Append(FlightEvent{TimeUS: int64(i), Name: "record_sent", Seq: uint64(i)})
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	if f.Total() != 6 {
		t.Fatalf("Total = %d, want 6", f.Total())
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d, want 4", len(snap))
	}
	// Oldest-first: events 2..5 survive the wrap.
	for i, ev := range snap {
		if ev.Seq != uint64(i+2) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest-first)", i, ev.Seq, i+2)
		}
	}
}

// TestFlightGrowsToDefaultCapacity: the ring starts at a fraction of
// its capacity (a short session must not pay for the full megabyte),
// keeps every event while it grows, and stops growing at the capacity.
func TestFlightGrowsToDefaultCapacity(t *testing.T) {
	f := NewFlight(0)
	if got := cap(f.buf); got >= DefaultFlightCapacity {
		t.Fatalf("fresh ring already holds %d events", got)
	}
	for i := 0; i < DefaultFlightCapacity+10; i++ {
		f.Append(FlightEvent{Seq: uint64(i)})
		if want := min(i+1, DefaultFlightCapacity); f.Len() != want {
			t.Fatalf("after %d appends the ring holds %d, want %d", i+1, f.Len(), want)
		}
	}
	if got := cap(f.buf); got != DefaultFlightCapacity {
		t.Fatalf("grown capacity %d, want %d", got, DefaultFlightCapacity)
	}
	snap := f.Snapshot()
	for i, ev := range snap {
		if ev.Seq != uint64(i+10) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest-first)", i, ev.Seq, i+10)
		}
	}
}

// TestFlightAppendZeroAlloc is the hot-path gate: the always-on
// recorder must not allocate per event.
func TestFlightAppendZeroAlloc(t *testing.T) {
	f := NewFlight(1024)
	ev := FlightEvent{TimeUS: 1, Name: "record_sent", Conn: 1, Stream: 2, Seq: 3, Bytes: 100}
	for i := 0; i < 1024; i++ {
		f.Append(ev) // the ring grows in steps; the gate is for a full one
	}
	if n := testing.AllocsPerRun(1000, func() { f.Append(ev) }); n != 0 {
		t.Fatalf("Append allocates %v per op, want 0", n)
	}
}

func TestFlightDumpQlogFraming(t *testing.T) {
	f := NewFlight(8)
	f.Append(FlightEvent{TimeUS: 1000, Name: "record_sent", Conn: 1, Seq: 7, Bytes: 42})
	f.Append(FlightEvent{TimeUS: 2000, Name: "record_span", Conn: 1, Seq: 7,
		EnqUS: 900, SealedUS: 950, WrittenUS: 980, AckedUS: 1999, Retx: 1})
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump wrote %d lines, want header + 2: %q", len(lines), lines)
	}
	if lines[0] != QlogHeader {
		t.Fatalf("dump header = %q", lines[0])
	}
	if !strings.Contains(lines[1], `"type":"record_sent"`) ||
		!strings.Contains(lines[1], `"category":"transport"`) {
		t.Fatalf("event line unframed: %q", lines[1])
	}
	if !strings.Contains(lines[2], `"acked_us":1999`) || !strings.Contains(lines[2], `"retx":1`) {
		t.Fatalf("span legs missing from dump: %q", lines[2])
	}
}

func BenchmarkFlightAppend(b *testing.B) {
	f := NewFlight(DefaultFlightCapacity)
	ev := FlightEvent{TimeUS: 1, Name: "record_sent", Conn: 1, Stream: 2, Seq: 3, Bytes: 16368}
	for i := 0; i < DefaultFlightCapacity; i++ {
		f.Append(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Seq = uint64(i)
		f.Append(ev)
	}
}
