package tcpls

import (
	"sync"
	"time"

	"tcpls/internal/health"
	"tcpls/internal/telemetry"
)

// HealthConfig is the Config.Health knob: the continuous self-diagnosis
// sampler layered over telemetry. The zero value enables it at the
// production defaults — a shared 1s tick, 60 ticks of ring history —
// whenever telemetry itself is on. The sampler snapshots the session's
// counters each tick into fixed time-series rings (zero steady-state
// allocations), derives goodput, retransmit ratio, reorder slope, and
// ACK-RTT drift, and runs a hysteresis rule table whose verdicts
// (stall_suspected, retransmit_storm, memory_growth, path_asymmetry)
// flow to the flight recorder, the qlog trace under the "health"
// category, tcpls_health_* Prometheus families, and the
// /debug/tcpls/health JSON endpoint.
type HealthConfig struct {
	// Disabled turns continuous diagnosis off. It is also implicitly
	// off when Telemetry.Disabled is set — the monitor's series live in
	// the session's registry entry.
	Disabled bool
	// Interval is the sampling tick (default 1s). Sessions sharing an
	// interval share one polling goroutine; the rule hysteresis is
	// counted in ticks, so shorter intervals diagnose proportionally
	// faster.
	Interval time.Duration
}

func (hc *HealthConfig) interval() time.Duration {
	if hc.Interval <= 0 {
		return time.Second
	}
	return hc.Interval
}

// sessionHealthSource is a Session as a health.Source: the tick's one
// hold of s.mu, filling the monitor's reused snapshot.
type sessionHealthSource struct{ s *Session }

func (src sessionHealthSource) HealthSample(snap *telemetry.Snapshot, _ *health.ProcessCounters) {
	src.s.fillSnapshot(snap)
}

// onHealthVerdict is the session's verdict sink: every raise/clear is
// stamped onto the trace timeline (flight recorder + qlog sink + user
// Trace callback) as a "health"-category event whose type is the
// verdict name, Seq 1 for raises and 0 for clears, Bytes the headline
// evidence scalar. Runs on the health engine's goroutine.
func (s *Session) onHealthVerdict(v health.Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := uint64(0)
	if v.Raised {
		seq = 1
	}
	s.engine.Note(v.Name, v.Conn, 0, seq, int(v.Value))
}

// initHealth registers the session's monitor on the shared wall-clock
// engine for its interval and on /debug/tcpls/health, both under the
// debug key. Rings and tcpls_health_* series (key = the debug key; they
// live in the session's registry entry) come with the monitor's first
// tick; until then it is a struct and two map entries. Called from
// initTelemetry before the engine sees traffic.
func (s *Session) initHealth() {
	hc := &s.cfg.Health
	if hc.Disabled || s.entry == nil || s.debugKey == "" {
		return
	}
	iv := hc.interval()
	key, entry := s.debugKey, s.entry
	mon := health.NewMonitor(sessionHealthSource{s}, health.Options{
		Key:       key,
		Interval:  iv,
		OnVerdict: s.onHealthVerdict,
		Metrics:   func() *health.Metrics { return healthFams.Entity(key, entry) },
	})
	s.healthMon = mon
	s.healthEng = healthEngine(iv)
	telemetry.RegisterHealth(key, func() any { return mon.Status() })
	s.healthEng.Register(key, mon)
	acquireProcessHealth(iv)
}

// closeHealthLocked tears the monitor down. Idempotent; called under
// s.mu from closeTelemetryLocked, before the debug key is cleared. The
// engine never blocks on an in-flight poll, so this cannot deadlock
// against a sampler holding nothing and wanting s.mu.
func (s *Session) closeHealthLocked() {
	if s.healthMon == nil {
		return
	}
	telemetry.UnregisterHealth(s.debugKey)
	s.healthEng.Unregister(s.debugKey)
	releaseProcessHealth()
	s.healthMon = nil
}

// Shared wall-clock health engines, one per interval in use: sessions
// with the same tick share one polling goroutine, which runs only while
// a monitor is registered. An idle engine is a few words and stays.
var (
	healthEngMu   sync.Mutex
	healthEngines = make(map[time.Duration]*health.Engine)
)

func healthEngine(iv time.Duration) *health.Engine {
	healthEngMu.Lock()
	defer healthEngMu.Unlock()
	e, ok := healthEngines[iv]
	if !ok {
		e = health.NewEngine(iv)
		healthEngines[iv] = e
	}
	return e
}

// The process-level monitor diagnoses what no single session can see:
// resumption acceptance, admission pressure, and the server memory
// rollup, sampled from the shared registry. It exists while any
// session-level monitor does (refcounted) and serves the "process" key
// on /debug/tcpls/health.
var (
	procHealthMu   sync.Mutex
	procHealthEng  *health.Engine // non-nil while the monitor exists
	procHealthRefs int
)

// processHealthSource samples the process-wide registry families.
type processHealthSource struct{}

func (processHealthSource) HealthSample(snap *telemetry.Snapshot, proc *health.ProcessCounters) {
	reg := telemetry.Default()
	sum := func(name string) uint64 {
		v, _ := reg.SumValues(name)
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	proc.ResumeAccepted = sum("tcpls_resume_accepted_total")
	proc.ResumeRejected = sum("tcpls_resume_rejected_total")
	proc.AdmissionRejected = sum("tcpls_server_rejected_total")
	mem, _ := reg.SumValues("tcpls_server_memory_bytes")
	snap.MemoryBytes = int(mem)
}

// HealthRollup surfaces the operator counters the /debug/tcpls/health
// endpoint and tcpls-top promise to agree with Prometheus on: the
// PR-8 resumption families and ticket-rotation failures, plus the
// admission edge.
func (processHealthSource) HealthRollup() map[string]float64 {
	reg := telemetry.Default()
	out := make(map[string]float64, 12)
	for _, name := range []string{
		"tcpls_resume_accepted_total",
		"tcpls_resume_rejected_total",
		"tcpls_early_data_accepted_total",
		"tcpls_early_data_rejected_total",
		"tcpls_early_data_bytes_total",
		"tcpls_join_fastpath_total",
		"tcpls_replay_entries",
		"tcpls_ticket_rotate_failures_total",
		"tcpls_server_accepted_total",
		"tcpls_server_rejected_total",
		"tcpls_server_sessions",
		"tcpls_server_memory_bytes",
	} {
		if v, ok := reg.SumValues(name); ok {
			out[name] = v
		}
	}
	return out
}

func acquireProcessHealth(iv time.Duration) {
	procHealthMu.Lock()
	defer procHealthMu.Unlock()
	procHealthRefs++
	if procHealthEng != nil {
		return
	}
	mon := health.NewMonitor(processHealthSource{}, health.Options{
		Key:      "process",
		Interval: iv,
		Process:  true,
		Metrics:  func() *health.Metrics { return healthFams.Entity("process", nil) },
	})
	procHealthEng = healthEngine(iv)
	telemetry.RegisterHealth("process", func() any { return mon.Status() })
	procHealthEng.Register("process", mon)
}

func releaseProcessHealth() {
	procHealthMu.Lock()
	defer procHealthMu.Unlock()
	if procHealthRefs--; procHealthRefs > 0 || procHealthEng == nil {
		return
	}
	telemetry.UnregisterHealth("process")
	procHealthEng.Unregister("process")
	procHealthEng = nil
}
