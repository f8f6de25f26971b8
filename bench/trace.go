package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer. Spans are recorded
// here, in bench/, around those calls; spans inside the program are a
// later change.
type span struct {
	name       string
	op         uint64 // shared by every span of one block, echo or connect cycle
	start, end int64  // ns since the tracer's epoch
	self       int64  // duration minus the part its children cover
	parent     int    // index of the parent in the tracer, -1 for the operation itself
}

// traceFileSpans caps the spans written per workload; the self-time
// totals always cover every span.
const traceFileSpans = 200_000

// tracer belongs to one goroutine and takes no lock. It keeps its spans
// in memory until the run ends.
type tracer struct {
	epoch time.Time
	on    bool
	onAt  int64
	wall  int64 // time the goroutine spent with tracing on
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// set switches recording on or off between operations, so that one run
// can alternate traced and untraced slices.
func (t *tracer) set(on bool) {
	if t == nil || t.on == on {
		return
	}
	now := t.now()
	if on {
		t.onAt = now
	} else {
		t.wall += now - t.onAt
	}
	t.on = on
}

// begin opens a span and returns its handle; -1 when tracing is off.
func (t *tracer) begin(name string, parent int, op uint64) int {
	if t == nil || !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: op, start: t.now(), parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = t.now()
	d := s.end - s.start
	s.self += d
	if s.parent >= 0 {
		t.spans[s.parent].self -= d
	}
}

// selfTime is one span name's share of a traced goroutine.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share_of_wall"`
}

// selfTimes adds up self time per span name over the tracers of one
// kind of goroutine, and reports how much of their traced wall time the
// spans cover.
func selfTimes(tracers []*tracer) (rows []selfTime, coverage float64) {
	byName := map[string]*selfTime{}
	var total, wall int64
	for _, t := range tracers {
		t.set(false)
		wall += t.wall
		for i := range t.spans {
			s := &t.spans[i]
			r := byName[s.name]
			if r == nil {
				r = &selfTime{Name: s.name}
				byName[s.name] = r
			}
			r.Count++
			r.SelfMS += float64(s.self) / 1e6
			total += s.self
		}
	}
	if wall == 0 {
		return nil, 0
	}
	for _, r := range byName {
		r.Share = r.SelfMS * 1e6 / float64(wall)
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows, float64(total) / float64(wall)
}

func shareOf(rows []selfTime, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return r.Share
		}
	}
	return 0
}

// meanSelfUS is the mean self time of the named span, 0 when the
// workload never makes that call.
func meanSelfUS(rows []selfTime, name string) float64 {
	for _, r := range rows {
		if r.Name == name && r.Count > 0 {
			return r.SelfMS * 1e3 / float64(r.Count)
		}
	}
	return 0
}

// writeSpans writes the tracers' spans as JSON lines: name, start and
// end in Unix ns, the span that caused it (0: none), the operation's id,
// and the self time. A span's id is unique in the file.
func writeSpans(path string, tracers []*tracer) (written, dropped int, err error) {
	type line struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Op     uint64 `json:"op"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for n, t := range tracers {
		base, epoch := uint64(n+1)<<40, t.epoch.UnixNano()
		for i, s := range t.spans {
			if written == traceFileSpans {
				dropped += len(t.spans) - i
				break
			}
			l := line{ID: base + uint64(i) + 1, Op: s.op, Name: s.name, Start: epoch + s.start, End: epoch + s.end, Self: s.self}
			if s.parent >= 0 {
				l.Parent = base + uint64(s.parent) + 1
			}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return written, dropped, err
			}
			written++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return written, dropped, err
	}
	return written, dropped, f.Close()
}
