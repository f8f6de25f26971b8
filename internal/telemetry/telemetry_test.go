package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Load() != 0 {
		t.Fatal("nil counter loaded non-zero")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Load() != 0 {
		t.Fatal("nil gauge loaded non-zero")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded a sample")
	}

	real := new(Counter)
	real.Inc()
	real.Add(2)
	if got := real.Load(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	rg := new(Gauge)
	rg.Set(5)
	rg.Add(-2)
	if got := rg.Load(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
}

// TestSessionMetricsNilIsDisabled: a nil entry means telemetry is off,
// on every method — no handle comes back and no series is registered
// (a process-wide series is the caller's v.With, never a nil entry's).
func TestSessionMetricsNilIsDisabled(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_nil_total", "Nil entry counter.", "key")
	gv := r.GaugeVec("test_nil", "Nil entry gauge.", "key")
	var sm *SessionMetrics
	if c := sm.Counter(cv, "k"); c != nil {
		t.Fatalf("Counter on nil = %p", c)
	}
	if g := sm.Gauge(gv, "k"); g != nil {
		t.Fatalf("Gauge on nil = %p", g)
	}
	sm.Detach()
	if got := r.Gather(); len(got) != 0 {
		t.Fatalf("nil entry registered series: %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	// 0.5 and 1 land in le=1; 5 in le=10; 50 in le=100; 500 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %g, want 556.5", h.Sum())
	}
	// A Snapshot's Hist buckets the same way.
	var plain Hist
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		plain.Observe([]float64{1, 10, 100}, v)
	}
	if plain.Counts != [12]uint64{2, 1, 1, 1} || plain.Count() != 5 || plain.Sum != 556.5 {
		t.Fatalf("Hist = %+v, count %d", plain, plain.Count())
	}
}

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_records_total", "Records.", "sess", "conn").With("ab", "0").Add(5)
	r.GaugeVec("test_open", "Open things.", "sess").With("ab").Set(2)
	h := r.HistogramVec("test_rtt_seconds", "RTT.", []float64{0.01, 0.1}, "sess").With("ab")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_records_total Records.
# TYPE test_records_total counter
test_records_total{sess="ab",conn="0"} 5
# HELP test_open Open things.
# TYPE test_open gauge
test_open{sess="ab"} 2
# HELP test_rtt_seconds RTT.
# TYPE test_rtt_seconds histogram
test_rtt_seconds_bucket{sess="ab",le="0.01"} 1
test_rtt_seconds_bucket{sess="ab",le="0.1"} 2
test_rtt_seconds_bucket{sess="ab",le="+Inf"} 3
test_rtt_seconds_sum{sess="ab"} 5.055
test_rtt_seconds_count{sess="ab"} 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_esc_total", "Escapes.", "v").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `test_esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", buf.String())
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("test_dup_total", "One.", "sess")
	b := r.CounterVec("test_dup_total", "Two.", "sess")
	a.With("x").Inc()
	b.With("x").Inc()
	if got := a.With("x").Load(); got != 2 {
		t.Fatalf("re-registered family not shared: %d, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema mismatch did not panic")
		}
	}()
	r.GaugeVec("test_dup_total", "Wrong kind.", "sess")
}

// filled returns a fill that hands out a copy of *snap: what the test
// changes in *snap shows at the next read.
func filled(snap *Snapshot) func(*Snapshot) {
	return func(dst *Snapshot) { *dst = *snap }
}

func TestFamiliesSharedAcrossSessions(t *testing.T) {
	r := NewRegistry()
	f1 := TCPLSFamilies(r)
	f2 := TCPLSFamilies(r)
	if f1 != f2 {
		t.Fatal("family set resolved twice for one registry")
	}
	s1 := &Snapshot{Conns: []ConnSnapshot{{ID: 0, Stats: Stats{RecordsSent: 3}}}}
	s2 := &Snapshot{Conns: []ConnSnapshot{{ID: 0, Stats: Stats{RecordsSent: 4}}}}
	f1.Session("s1", "client", filled(s1))
	f2.Session("s2", "client", filled(s2))
	got := r.Gather()
	if got[`tcpls_records_sent_total{sess="s1",role="client",conn="0"}`] != 3 {
		t.Fatalf("s1 counter missing: %v", got)
	}
	if got[`tcpls_records_sent_total{sess="s2",role="client",conn="0"}`] != 4 {
		t.Fatalf("s2 counter missing: %v", got)
	}
	// Series are read at scrape time, not copied at attach time.
	s1.Conns[0].RecordsSent = 9
	if got := r.Gather()[`tcpls_records_sent_total{sess="s1",role="client",conn="0"}`]; got != 9 {
		t.Fatalf("s1 counter after the session counted on: %v, want 9", got)
	}
}

// TestSessionBlockLifetime pins the lifetime rule: a session is one
// entry of the registry, its two ends count apart, its series (riders
// of other families included) are on every read path while it is
// attached and on none after Detach.
func TestSessionBlockLifetime(t *testing.T) {
	r := NewRegistry()
	fams := TCPLSFamilies(r)
	perm := r.GaugeVec("test_rider", "Rides in an entry or stays.", "key")
	perm.With("process").Set(5)
	before := len(r.Gather())

	clSnap := &Snapshot{
		Counters:   Counters{Failovers: 1},
		Conns:      []ConnSnapshot{{ID: 1, Stats: Stats{BytesSent: 10}}},
		Streams:    []StreamSnapshot{{ID: 4, BytesReceived: 7}},
		SchedPicks: map[string]uint64{"rr": 2},
	}
	clSnap.AckRTT.Observe(RTTBuckets, 0.002)
	cl := fams.Session("ab", "client", filled(clSnap))
	sv := fams.Session("ab", "server", filled(&Snapshot{Counters: Counters{Failovers: 4}}))
	cl.Gauge(perm, "ab-client-1").Set(3)

	got := r.Gather()
	for series, want := range map[string]float64{
		`tcpls_failovers_total{sess="ab",role="client"}`:                        1,
		`tcpls_failovers_total{sess="ab",role="server"}`:                        4,
		`tcpls_bytes_sent_total{sess="ab",role="client",conn="1"}`:              10,
		`tcpls_stream_bytes_received_total{sess="ab",role="client",stream="4"}`: 7,
		`tcpls_sched_picks_total{sess="ab",role="client",policy="rr"}`:          2,
		`tcpls_ack_rtt_seconds{sess="ab",role="client"}_count`:                  1,
		`tcpls_ack_rtt_seconds{sess="ab",role="client"}_sum`:                    0.002,
		`test_rider{key="ab-client-1"}`:                                         3,
		`test_rider{key="process"}`:                                             5,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", series, v, ok, want)
		}
	}
	if sum, ok := r.SumValues("tcpls_failovers_total"); !ok || sum != 5 {
		t.Errorf("SumValues over two attached ends = %v, %v; want 5", sum, ok)
	}
	if sum, _ := r.SumValues("test_rider"); sum != 8 {
		t.Errorf("SumValues over a child and a rider = %v, want 8", sum)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`tcpls_failovers_total{sess="ab",role="client"} 1`,
		`tcpls_ack_rtt_seconds_bucket{sess="ab",role="client",le="0.001"} 0`,
		`tcpls_ack_rtt_seconds_bucket{sess="ab",role="client",le="0.003"} 1`,
		`tcpls_ack_rtt_seconds_bucket{sess="ab",role="client",le="+Inf"} 1`,
		`tcpls_ack_rtt_seconds_sum{sess="ab",role="client"} 0.002`,
		`tcpls_ack_rtt_seconds_count{sess="ab",role="client"} 1`,
		`tcpls_record_payload_bytes_bucket{sess="ab",role="server",le="16384"} 0`,
		`tcpls_conns_open{sess="ab",role="client"} 0`,
		`test_rider{key="ab-client-1"} 3`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, buf.String())
		}
	}

	cl.Detach()
	sv.Detach()
	cl.Detach() // idempotent
	if after := r.Gather(); len(after) != before {
		t.Fatalf("registry holds %d series after Detach, %d before the sessions: %v", len(after), before, after)
	}
	if sum, _ := r.SumValues("tcpls_failovers_total"); sum != 0 {
		t.Errorf("SumValues still sees a detached session: %v", sum)
	}
}

func TestCounterHotPathAllocs(t *testing.T) {
	c := new(Counter)
	g := new(Gauge)
	h := newHistogram(RTTBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(4096)
		g.Set(3)
		h.Observe(0.01)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", n)
	}
}

// sinkLine is a trace line as any JSON reader sees it: the decoder the
// sink tests check the hand-written encoder against.
type sinkLine struct {
	TimeUS   int64  `json:"time_us"`
	Category string `json:"category"`
	Type     string `json:"type"`
	Data     Event  `json:"data"`
}

func TestSinkWritesJSONLines(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := NewSink(w, SinkOptions{})
	ts := time.Unix(12, 345678000).UnixMicro()
	span := Event{TimeUS: ts, Name: "record_span", Conn: 1, Stream: 2, Seq: 41, Bytes: 100,
		EnqUS: ts - 40, SealedUS: ts - 30, AckedUS: ts, OrigConn: 3, Retx: 2}
	s.Emit(span)
	s.Emit(Event{TimeUS: ts, Name: "note \"quoted\"\n", Seq: 41})
	s.Close()

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want header + 2: %q", len(lines), lines)
	}
	var got sinkLine
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	got.Data.TimeUS, got.Data.Name = got.TimeUS, got.Type
	if got.Data != span || got.Category != "span" {
		t.Fatalf("round-trip mismatch:\n got %+v (%s)\nwant %+v", got.Data, got.Category, span)
	}
	// A leg that was never stamped is absent, not 0 and not negative.
	if strings.Contains(lines[1], "written_us") {
		t.Fatalf("unstamped leg serialized: %s", lines[1])
	}
	if err := json.Unmarshal([]byte(lines[2]), &got); err != nil {
		t.Fatalf("line 2 is not JSON: %v\n%s", err, lines[2])
	}
	if got.Type != "note \"quoted\"\n" || got.Category != "session" {
		t.Fatalf("escaped name came back as %q (%s)", got.Type, got.Category)
	}
	if s.Emitted() != 2 || s.Dropped() != 0 {
		t.Fatalf("emitted=%d dropped=%d", s.Emitted(), s.Dropped())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestSinkQlogFraming: the sink writes the qlog NDJSON header first,
// then category/type-framed events with the event fields nested under
// data.
func TestSinkQlogFraming(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := NewSink(w, SinkOptions{})
	ts := time.Unix(12, 345678000).UnixMicro()
	s.Emit(Event{TimeUS: ts, Name: "record_sent", Conn: 1, Stream: 2, Seq: 41, Bytes: 100})
	s.Emit(Event{TimeUS: ts, Name: "conn_failed", Conn: 1})
	s.Close()

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want header + 2 events: %q", len(lines), lines)
	}
	if lines[0] != QlogHeader {
		t.Fatalf("first line = %q, want qlog header %q", lines[0], QlogHeader)
	}
	var ev sinkLine
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("event line is not JSON: %v", err)
	}
	if ev.Category != "transport" || ev.Type != "record_sent" {
		t.Fatalf("framing mismatch: category=%q type=%q", ev.Category, ev.Type)
	}
	if ev.TimeUS != ts || ev.Data.Conn != 1 || ev.Data.Stream != 2 || ev.Data.Seq != 41 || ev.Data.Bytes != 100 {
		t.Fatalf("data mismatch: %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[2]), &ev); err != nil {
		t.Fatalf("second event line is not JSON: %v", err)
	}
	if ev.Category != "recovery" || ev.Type != "conn_failed" {
		t.Fatalf("conn_failed framed as %s:%s, want recovery:conn_failed", ev.Category, ev.Type)
	}
}

// TestSinkStalledWriterDrops is the backpressure acceptance test: with
// the writer goroutine wedged on a blocking io.Writer, Emit must return
// immediately, drop events once the ring fills, and count the drops —
// the engine path is never stalled by tracing.
func TestSinkStalledWriterDrops(t *testing.T) {
	release := make(chan struct{})
	stalled := writerFunc(func(p []byte) (int, error) {
		<-release // wedge until the test ends
		return len(p), nil
	})
	s := NewSink(stalled, SinkOptions{Capacity: 8})
	defer close(release)

	const emits = 1000
	done := make(chan struct{})
	go func() {
		for i := 0; i < emits; i++ {
			s.Emit(Event{Name: "stalled"})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a stalled writer")
	}

	if s.Dropped() == 0 {
		t.Fatal("stalled writer produced no drops")
	}
	if s.Emitted()+s.Dropped() != emits {
		t.Fatalf("emitted %d + dropped %d != %d", s.Emitted(), s.Dropped(), emits)
	}
	// Close must come back promptly even though the writer is wedged.
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > 4*time.Second {
		t.Fatalf("Close took %v on a stalled writer", d)
	}
}

func TestSinkEmitAllocFree(t *testing.T) {
	s := NewSink(io.Discard, SinkOptions{Capacity: 1 << 16})
	defer s.Close()
	ev := Event{Name: "record_sent", Conn: 1, Seq: 9, Bytes: 512}
	if n := testing.AllocsPerRun(1000, func() { s.Emit(ev) }); n != 0 {
		t.Fatalf("Emit allocates %v per op, want 0", n)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_http_total", "HTTP test.", "sess").With("x").Add(9)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, `test_http_total{sess="x"} 9`) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/goroutine unexpected body:\n%s", body)
	}
}

func BenchmarkTraceSink(b *testing.B) {
	// Writer that consumes without stalling: the benchmark measures the
	// producer-side Emit cost, buffered encode included.
	s := NewSink(bufio.NewWriterSize(io.Discard, 1<<20), SinkOptions{Capacity: 1 << 14})
	defer s.Close()
	ev := Event{Name: "record_sent", Conn: 1, Stream: 2, Seq: 41, Bytes: 16368}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(ev)
	}
}
