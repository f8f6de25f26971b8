package health

import (
	"runtime"
	"testing"
	"time"

	"tcpls/internal/telemetry"
)

// fakeSource fills snapshots from a mutable template, into the rows the
// monitor hands it.
type fakeSource struct {
	s    telemetry.Snapshot
	proc ProcessCounters
}

func (f *fakeSource) HealthSample(snap *telemetry.Snapshot, proc *ProcessCounters) {
	conns := snap.Conns[:0]
	*snap = f.s
	snap.Conns = append(conns, f.s.Conns...)
	*proc = f.proc
}

func tick(m *Monitor, atUS *int64, ivUS int64) {
	*atUS += ivUS
	m.Poll(time.UnixMicro(*atUS))
}

func TestSeriesRing(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 6; i++ {
		s.Push(int64(i)*1e6, float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	if got := s.At(0).V; got != 2 {
		t.Fatalf("oldest = %v, want 2", got)
	}
	if last, _ := s.Last(); last.V != 5 {
		t.Fatalf("last = %v, want 5", last.V)
	}
	// y = x over seconds: slope 1/s.
	if slope := s.Slope(4); slope < 0.99 || slope > 1.01 {
		t.Fatalf("slope = %v, want ~1", slope)
	}
	if mean := s.Mean(2); mean != 4.5 {
		t.Fatalf("mean(2) = %v, want 4.5", mean)
	}
	w := s.AppendWindow(nil, 3)
	if len(w) != 3 || w[0].V != 3 || w[2].V != 5 {
		t.Fatalf("window = %+v", w)
	}
}

func TestSeriesMonotoneGrowth(t *testing.T) {
	s := NewSeries(8)
	for i := 1; i <= 8; i++ {
		s.Push(int64(i), float64(i)*100)
	}
	if !s.monotoneGrowth(8, 2.0) {
		t.Fatal("steady ramp x8 not detected")
	}
	if s.monotoneGrowth(8, 10.0) {
		t.Fatal("x8 ramp should not satisfy factor 10")
	}
	s.Push(9, 50) // dip breaks monotonicity
	if s.monotoneGrowth(8, 1.0) {
		t.Fatal("dip should break monotone growth")
	}
}

func collectVerdicts(dst *[]Verdict) func(Verdict) {
	return func(v Verdict) { *dst = append(*dst, v) }
}

func TestStallRuleHysteresis(t *testing.T) {
	src := &fakeSource{}
	var got []Verdict
	m := NewMonitor(src, Options{
		Key: "t", Interval: time.Second, Window: 16,
		OnVerdict: collectVerdicts(&got),
	})
	var at int64
	iv := int64(1e6)
	src.s.ConnsLive = 1
	// Healthy traffic: progress every tick.
	for i := 0; i < 5; i++ {
		src.s.BytesSent += 1000
		src.s.AcksReceived += 10
		src.s.BytesReceived += 1000
		tick(m, &at, iv)
	}
	if len(got) != 0 {
		t.Fatalf("verdicts during healthy traffic: %+v", got)
	}
	// Stall: outstanding data, zero progress. Default trip is 3 ticks.
	src.s.RetransmitBytes = 4096
	for i := 0; i < 2; i++ {
		tick(m, &at, iv)
	}
	if len(got) != 0 {
		t.Fatalf("tripped before hysteresis window: %+v", got)
	}
	tick(m, &at, iv)
	if len(got) != 1 || got[0].Kind != StallSuspected || !got[0].Raised {
		t.Fatalf("want stall raise, got %+v", got)
	}
	v := got[0]
	if v.Value != 4096 {
		t.Fatalf("stall value = %v, want 4096 outstanding", v.Value)
	}
	if v.Metric != "progress_bps" || len(v.Evidence) != 3 {
		t.Fatalf("evidence = %s x%d, want progress_bps x3", v.Metric, len(v.Evidence))
	}
	for _, p := range v.Evidence {
		if p.V != 0 {
			t.Fatalf("stall evidence window has progress: %+v", v.Evidence)
		}
	}
	// Recovery: progress resumes; default clear is 2 ticks, plus the
	// all-clear Healthy transition.
	src.s.RetransmitBytes = 0
	src.s.AcksReceived += 10
	tick(m, &at, iv)
	if len(got) != 1 {
		t.Fatalf("cleared after one good tick: %+v", got[1:])
	}
	src.s.AcksReceived += 10
	tick(m, &at, iv)
	if len(got) != 3 {
		t.Fatalf("want clear + healthy, got %+v", got[1:])
	}
	if got[1].Kind != StallSuspected || got[1].Raised {
		t.Fatalf("want stall clear, got %+v", got[1])
	}
	if got[1].AtUS-got[1].SinceUS <= 0 {
		t.Fatalf("clear carries no active duration: %+v", got[1])
	}
	if got[2].Kind != Healthy || !got[2].Raised {
		t.Fatalf("want healthy transition, got %+v", got[2])
	}
	if kinds := m.ActiveVerdicts(nil); len(kinds) != 0 {
		t.Fatalf("active after clear: %v", kinds)
	}
}

func TestRetransmitStorm(t *testing.T) {
	src := &fakeSource{}
	var got []Verdict
	m := NewMonitor(src, Options{
		Key: "t", Interval: time.Second, Window: 16,
		OnVerdict: collectVerdicts(&got),
	})
	var at int64
	iv := int64(1e6)
	src.s.ConnsLive = 1
	for i := 0; i < 3; i++ {
		src.s.RecordsSent += 100
		src.s.AcksReceived += 10
		tick(m, &at, iv)
	}
	// Storm: half of everything sent is a retransmit, two ticks.
	for i := 0; i < 2; i++ {
		src.s.RecordsSent += 100
		src.s.Retransmits += 50
		src.s.AcksReceived += 10
		tick(m, &at, iv)
	}
	if len(got) != 1 || got[0].Kind != RetransmitStorm || !got[0].Raised {
		t.Fatalf("want storm raise, got %+v", got)
	}
	if got[0].Value < 0.4 || got[0].Value > 0.6 {
		t.Fatalf("storm ratio = %v, want ~0.5", got[0].Value)
	}
	// A dribble of retransmits below the per-tick floor is not a storm.
	got = got[:0]
	for i := 0; i < 4; i++ {
		src.s.RecordsSent += 4
		src.s.Retransmits += 2
		src.s.AcksReceived += 1
		tick(m, &at, iv)
	}
	for _, v := range got {
		if v.Kind == RetransmitStorm && v.Raised {
			t.Fatalf("storm re-raised on sub-floor retransmits: %+v", v)
		}
	}
}

func TestMemoryGrowthRule(t *testing.T) {
	src := &fakeSource{}
	var got []Verdict
	m := NewMonitor(src, Options{
		Key: "t", Interval: time.Second, Window: 32,
		Rules:     RuleConfig{MemGrowthTicks: 5},
		OnVerdict: collectVerdicts(&got),
	})
	var at int64
	iv := int64(1e6)
	src.s.ConnsLive = 1
	// A big but flat allocation is not growth.
	src.s.MemoryBytes = 16 << 20
	for i := 0; i < 8; i++ {
		src.s.AcksReceived++
		tick(m, &at, iv)
	}
	if len(got) != 0 {
		t.Fatalf("flat memory diagnosed as growth: %+v", got)
	}
	// Monotone doubling above the floor trips.
	for i := 0; i < 6; i++ {
		src.s.MemoryBytes += 8 << 20
		src.s.AcksReceived++
		tick(m, &at, iv)
	}
	if len(got) == 0 || got[0].Kind != MemoryGrowth || !got[0].Raised {
		t.Fatalf("want memory_growth raise, got %+v", got)
	}
}

func TestPathAsymmetry(t *testing.T) {
	src := &fakeSource{}
	var got []Verdict
	m := NewMonitor(src, Options{
		Key: "t", Interval: time.Second, Window: 16,
		OnVerdict: collectVerdicts(&got),
	})
	var at int64
	iv := int64(1e6)
	src.s.ConnsLive = 2
	src.s.Conns = []telemetry.ConnSnapshot{{ID: 1}, {ID: 2}}
	// Both paths carry: no verdict.
	for i := 0; i < 4; i++ {
		src.s.Conns[0].BytesSent += 1 << 20
		src.s.Conns[1].BytesSent += 1 << 20
		src.s.BytesSent += 2 << 20
		src.s.AcksReceived += 10
		tick(m, &at, iv)
	}
	if len(got) != 0 {
		t.Fatalf("balanced paths diagnosed: %+v", got)
	}
	// Path 2 starves while path 1 keeps pushing.
	for i := 0; i < 3; i++ {
		src.s.Conns[0].BytesSent += 1 << 20
		src.s.BytesSent += 1 << 20
		src.s.AcksReceived += 10
		tick(m, &at, iv)
	}
	if len(got) != 1 || got[0].Kind != PathAsymmetry || !got[0].Raised {
		t.Fatalf("want path_asymmetry raise, got %+v", got)
	}
	if got[0].Conn != 2 {
		t.Fatalf("implicated conn = %d, want 2 (the starved path)", got[0].Conn)
	}
	// A path that never carried data (pure control/ack path) does not
	// count: reset with a fresh monitor.
	src2 := &fakeSource{}
	var got2 []Verdict
	m2 := NewMonitor(src2, Options{
		Key: "t2", Interval: time.Second, Window: 16,
		OnVerdict: collectVerdicts(&got2),
	})
	at = 0
	src2.s.ConnsLive = 2
	src2.s.Conns = []telemetry.ConnSnapshot{{ID: 1}, {ID: 2}}
	for i := 0; i < 6; i++ {
		src2.s.Conns[0].BytesSent += 1 << 20
		src2.s.BytesSent += 1 << 20
		src2.s.AcksReceived += 10
		tick(m2, &at, iv)
	}
	for _, v := range got2 {
		if v.Kind == PathAsymmetry {
			t.Fatalf("idle-from-birth path diagnosed as asymmetry: %+v", v)
		}
	}
}

func TestProcessRules(t *testing.T) {
	src := &fakeSource{}
	var got []Verdict
	m := NewMonitor(src, Options{
		Key: "process", Interval: time.Second, Window: 16, Process: true,
		OnVerdict: collectVerdicts(&got),
	})
	var at int64
	iv := int64(1e6)
	for i := 0; i < 3; i++ {
		src.proc.ResumeAccepted += 10
		tick(m, &at, iv)
	}
	if len(got) != 0 {
		t.Fatalf("healthy resumption diagnosed: %+v", got)
	}
	// Spike: most attempts rejected, two ticks.
	for i := 0; i < 2; i++ {
		src.proc.ResumeRejected += 8
		src.proc.ResumeAccepted += 2
		tick(m, &at, iv)
	}
	if len(got) != 1 || got[0].Kind != ResumeFailureSpike || !got[0].Raised {
		t.Fatalf("want resume_failure_spike, got %+v", got)
	}
	// Admission pressure: rejects on three consecutive ticks.
	got = got[:0]
	for i := 0; i < 3; i++ {
		src.proc.AdmissionRejected += 5
		tick(m, &at, iv)
	}
	found := false
	for _, v := range got {
		if v.Kind == AdmissionPressure && v.Raised {
			found = true
		}
	}
	if !found {
		t.Fatalf("want admission_pressure, got %+v", got)
	}
	// Stall/storm rules must not fire on a process monitor.
	for _, v := range got {
		if v.Kind == StallSuspected || v.Kind == RetransmitStorm {
			t.Fatalf("session rule on process monitor: %+v", v)
		}
	}
}

// TestPollAllocFree is the sampler's zero-alloc gate: after warmup, a
// steady-state poll (no new paths, no verdict transitions) performs no
// heap allocation — the PR-3 counter-gate discipline applied to the
// diagnosis layer.
func TestPollAllocFree(t *testing.T) {
	src := &fakeSource{}
	src.s.ConnsLive = 2
	sent := telemetry.Stats{BytesSent: 1 << 20}
	src.s.Conns = []telemetry.ConnSnapshot{{ID: 1, Stats: sent}, {ID: 2, Stats: sent}}
	m := NewMonitor(src, Options{Key: "t", Interval: time.Second, Window: 32})
	var at int64
	for i := 0; i < 8; i++ {
		src.s.BytesSent += 4096
		src.s.AcksReceived += 4
		src.s.Conns[0].BytesSent += 2048
		src.s.Conns[1].BytesSent += 2048
		tick(m, &at, int64(1e6))
	}
	allocs := testing.AllocsPerRun(200, func() {
		src.s.BytesSent += 4096
		src.s.AcksReceived += 4
		src.s.Conns[0].BytesSent += 2048
		src.s.Conns[1].BytesSent += 2048
		tick(m, &at, int64(1e6))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Poll allocates %.1f objects/op, want 0", allocs)
	}
}

func TestStatusSnapshot(t *testing.T) {
	src := &fakeSource{}
	src.s.ConnsLive = 1
	src.s.Conns = []telemetry.ConnSnapshot{{ID: 1, SRTTUS: 1500}}
	m := NewMonitor(src, Options{Key: "k", Interval: time.Second, Window: 8})
	var at int64
	for i := 0; i < 4; i++ {
		src.s.BytesSent += 1 << 20
		src.s.AcksReceived += 10
		src.s.Conns[0].BytesSent += 1 << 20
		tick(m, &at, int64(1e6))
	}
	st := m.Status()
	if st.Key != "k" || !st.Healthy || st.Ticks != 4 {
		t.Fatalf("status header: %+v", st)
	}
	if st.GoodputTxBps < 0.9*float64(1<<20) || st.GoodputTxBps > 1.1*float64(1<<20) {
		t.Fatalf("goodput = %v, want ~1 MiB/s", st.GoodputTxBps)
	}
	if len(st.Paths) != 1 || st.Paths[0].Conn != 1 || st.Paths[0].SRTTUS != 1500 {
		t.Fatalf("paths: %+v", st.Paths)
	}
}

// TestMonitorPaysAtFirstPoll: a monitor that is never polled (a session
// gone within one interval) holds no rings and has resolved no metric
// handles, and still answers Status; the first Poll builds both, once,
// and a session's handles then live in its registry entry and leave
// /metrics with it while the process monitor's stay.
func TestMonitorPaysAtFirstPoll(t *testing.T) {
	reg := telemetry.NewRegistry()
	fams := NewFamilies(reg)
	block := telemetry.TCPLSFamilies(reg).Session("ab", "client", func(*telemetry.Snapshot) {})
	resolved := 0
	m := NewMonitor(&fakeSource{}, Options{Key: "ab-client-1", Metrics: func() *Metrics {
		resolved++
		return fams.Entity("ab-client-1", block)
	}})
	proc := NewMonitor(&fakeSource{}, Options{Key: "process", Process: true, Metrics: func() *Metrics {
		return fams.Entity("process", nil)
	}})
	if st := m.Status(); st.Ticks != 0 || !st.Healthy || m.goodTx != nil || resolved != 0 {
		t.Fatalf("unpolled monitor: status %+v, rings %v, handles resolved %d times", st, m.goodTx != nil, resolved)
	}
	src := &fakeSource{}
	if n := testing.AllocsPerRun(100, func() { NewMonitor(src, Options{}) }); n > 1 {
		t.Fatalf("NewMonitor makes %v allocations, want the struct alone", n)
	}
	var at int64
	for i := 0; i < 3; i++ {
		tick(m, &at, int64(1e6))
		proc.Poll(time.UnixMicro(at))
	}
	if resolved != 1 || m.goodTx == nil || m.resumeRej != nil || proc.resumeRej == nil {
		t.Fatalf("after 3 polls: handles resolved %d times, rings %v, process rings session %v / process %v",
			resolved, m.goodTx != nil, m.resumeRej != nil, proc.resumeRej != nil)
	}
	const sessTicks, procTicks = `tcpls_health_ticks_total{key="ab-client-1"}`, `tcpls_health_ticks_total{key="process"}`
	if got := reg.Gather(); got[sessTicks] != 3 || got[procTicks] != 3 {
		t.Fatalf("ticks on the registry: session %v, process %v, want 3 and 3", got[sessTicks], got[procTicks])
	}
	block.Detach()
	got := reg.Gather()
	if _, ok := got[sessTicks]; ok || got[procTicks] != 3 {
		t.Fatalf("after Detach: session series present %v, process ticks %v", ok, got[procTicks])
	}
}

// TestEngineLifecycle: the shared goroutine starts with the first
// monitor, polls it, and exits when the registry empties.
func TestEngineLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine(5 * time.Millisecond)
	src := &fakeSource{}
	m := NewMonitor(src, Options{Key: "a", Interval: 5 * time.Millisecond})
	eng.Register("a", m)
	deadline := time.Now().Add(2 * time.Second)
	for m.Ticks() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Ticks() < 3 {
		t.Fatal("engine never polled the monitor")
	}
	eng.Unregister("a")
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("engine goroutine leaked: %d > base %d", runtime.NumGoroutine(), base)
}
