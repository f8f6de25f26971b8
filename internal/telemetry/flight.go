package telemetry

import (
	"io"
	"sync"
)

// DefaultFlightCapacity bounds the ring at ~0.7 MiB: 8192 entries of
// the 88-byte Event plus the slice header.
const DefaultFlightCapacity = 8192

// Flight is the always-on flight recorder: a bounded in-memory ring of
// the most recent trace events for one session. It starts small and
// doubles up to its capacity: a short session never zeroes the megabyte
// a long one fills. Append is mutex-guarded, allocation-free at capacity
// and cheap enough for the hot path; when something dies, Dump (or the
// auto-dump on SessionDeadError) reconstructs the last seconds.
type Flight struct {
	mu    sync.Mutex
	buf   []Event // the events held; grows to limit, then wraps
	limit int
	next  int    // ring cursor: index of the oldest entry once at limit
	total uint64 // events ever appended (so Dump can report loss)
}

// flightFirstStep is the ring's initial capacity in events: small, since
// most sessions are short (a connect-churn session records a dozen), and
// the ring doubles up to its limit for the ones that are not.
const flightFirstStep = 16

// NewFlight builds a recorder holding the last capacity events
// (DefaultFlightCapacity when capacity <= 0).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &Flight{limit: capacity, buf: make([]Event, 0, min(capacity, flightFirstStep))}
}

// Append records one event, overwriting the oldest once the ring is
// full. 0 allocs/op at capacity (benchmark-asserted).
func (f *Flight) Append(ev Event) {
	f.mu.Lock()
	if len(f.buf) == f.limit {
		f.buf[f.next] = ev
		if f.next++; f.next == f.limit {
			f.next = 0
		}
	} else {
		if len(f.buf) == cap(f.buf) {
			grown := make([]Event, len(f.buf), min(2*cap(f.buf), f.limit))
			copy(grown, f.buf)
			f.buf = grown
		}
		f.buf = append(f.buf, ev)
	}
	f.total++
	f.mu.Unlock()
}

// Len returns the number of events currently held.
func (f *Flight) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// Total returns the number of events ever appended; Total() - Len() is
// how many the ring has forgotten.
func (f *Flight) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Snapshot copies the held events out in append order (oldest first).
func (f *Flight) Snapshot() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...) // next stays 0 until the ring wraps
	return append(out, f.buf[:f.next]...)
}

// Dump writes the held events to w as a complete trace, the same lines
// the live Sink produces, so tcpls-trace reads flight dumps and live
// traces identically. The snapshot is taken up front; appends during
// the write are not included.
func (f *Flight) Dump(w io.Writer) error {
	return WriteEvents(w, f.Snapshot())
}
