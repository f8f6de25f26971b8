package telemetry

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SinkOptions tunes a Sink.
type SinkOptions struct {
	// Capacity bounds the ring buffer (default 4096 events). When the
	// writer cannot keep up, Emit drops instead of blocking.
	Capacity int
}

// Sink is a bounded, non-blocking trace writer: producers enqueue with
// a lock-free channel send and never wait on I/O; a dedicated goroutine
// drains the ring and writes trace lines (DESIGN.md §10) through a
// buffered writer, flushing whenever the ring goes idle. A stalled
// writer (full pipe, dead disk) fills the ring and subsequent events are
// dropped and counted — the engine's send/recv path is never
// backpressured by tracing.
type Sink struct {
	ch      chan Event
	dropped atomic.Uint64
	emitted atomic.Uint64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewSink starts a sink writing to w. Call Close to flush and stop.
func NewSink(w io.Writer, opts SinkOptions) *Sink {
	cap := opts.Capacity
	if cap <= 0 {
		cap = 4096
	}
	s := &Sink{
		ch:   make(chan Event, cap),
		done: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.writeLoop(w)
	return s
}

// Emit enqueues one event. It never blocks: with the ring full the
// event is dropped and counted.
func (s *Sink) Emit(ev Event) {
	select {
	case s.ch <- ev:
		s.emitted.Add(1)
	default:
		s.dropped.Add(1)
	}
}

// Dropped returns the number of events lost to a full ring.
func (s *Sink) Dropped() uint64 { return s.dropped.Load() }

// Emitted returns the number of events accepted into the ring.
func (s *Sink) Emitted() uint64 { return s.emitted.Load() }

// writeLoop drains the ring onto w. bufio batches the tiny writes and
// is flushed whenever the ring goes idle, so a tail -f on the trace file
// stays live without paying one syscall per event.
func (s *Sink) writeLoop(w io.Writer) {
	defer s.wg.Done()
	bw := bufio.NewWriterSize(w, 32<<10)
	// Write errors are dropped on purpose: an unwritable w must not stop
	// the drain, or producers would lose their non-blocking fast path.
	_, _ = bw.WriteString(QlogHeader + "\n")
	write := func(ev Event) {
		_, _ = bw.Write(appendEvent(bw.AvailableBuffer(), &ev))
	}
	for {
		select {
		case ev := <-s.ch:
			write(ev)
		case <-s.done:
			for {
				select {
				case ev := <-s.ch:
					write(ev)
				default:
					bw.Flush()
					return
				}
			}
		default:
			// Ring idle: flush buffered lines, then block until the next
			// event or close.
			bw.Flush()
			select {
			case ev := <-s.ch:
				write(ev)
			case <-s.done:
				continue // drain-and-exit branch above
			}
		}
	}
}

// Close stops the sink after flushing everything still in the ring.
// Note the writer goroutine may be mid-Write on a stalled io.Writer;
// Close does not wait forever for it — it signals shutdown and waits
// only for the drain of an unstalled writer.
func (s *Sink) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	// Bounded wait: a healthy writer drains in microseconds; a stalled
	// one must not turn Close into the very stall the sink exists to
	// prevent.
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	return nil
}
