package health

import (
	"fmt"
	"sync"
	"time"

	"tcpls/internal/telemetry"
)

// ProcessCounters are the cumulative counters only the process monitor
// reads; a session source leaves them zero.
type ProcessCounters struct {
	ResumeAccepted    uint64
	ResumeRejected    uint64
	AdmissionRejected uint64
}

// observation is what one Poll saw: the entity's snapshot (DESIGN.md
// §10.1; the process monitor fills MemoryBytes alone), when, and the
// process counters beside it.
type observation struct {
	atUS int64
	telemetry.Snapshot
	proc ProcessCounters
}

// Source supplies observations. HealthSample must fill snap completely
// (it is reused between polls, rows and all, so a steady-state pull
// allocates nothing) and may take the entity's own locks; it is called
// from the monitor's polling goroutine only.
type Source interface {
	HealthSample(snap *telemetry.Snapshot, proc *ProcessCounters)
}

// RollupSource is an optional Source extension: entities with
// operator-facing counters beyond the Sample schema (resumption and
// ticket-rotation families on the process monitor) expose them for the
// /debug/tcpls/health rollup. Called on the HTTP path, so it may
// allocate.
type RollupSource interface {
	HealthRollup() map[string]float64
}

// Options configures a Monitor.
type Options struct {
	// Key names the entity in verdicts and metrics ("process", or the
	// session's debug key).
	Key string
	// Interval is the expected polling period (informational: it sizes
	// rate math fallbacks and the Status report; the caller drives the
	// actual polling).
	Interval time.Duration
	// Window is the ring capacity in ticks (default 60: one minute of
	// history at the 1s production tick).
	Window int
	// Rules overrides diagnosis thresholds; zero fields take defaults.
	Rules RuleConfig
	// Process enables the process-level rules (ResumeFailureSpike,
	// AdmissionPressure) and disables the per-session ones.
	Process bool
	// OnVerdict, when set, receives every verdict transition, called
	// from Poll with the monitor lock held — keep it bounded. The
	// session wiring uses it to stamp qlog/flight events.
	OnVerdict func(Verdict)
	// Metrics, when set, resolves the handle block that mirrors ticks,
	// derived gauges, and verdict state into the tcpls_health_*
	// Prometheus families. Called once, at the first Poll, with the
	// monitor lock held.
	Metrics func() *Metrics
}

// pathSeries is the per-connection ring set.
type pathSeries struct {
	goodTx   *Series
	srtt     *Series
	last     telemetry.ConnSnapshot
	lastSeen uint64 // tick counter stamp, for staleness sweep
	everSent bool
}

// Monitor diagnoses one entity. Construct with NewMonitor, then drive
// with Poll — from the shared Engine in production, or directly from a
// virtual clock in deterministic harnesses.
type Monitor struct {
	mu  sync.Mutex
	src Source
	opt Options

	cur, prev observation
	havePrev  bool
	ticks     uint64

	// Derived rings and metric handles, built by the first Poll: an
	// entity that is gone within one interval never pays for them.
	mt        *Metrics
	goodTx    *Series // bytes/s sent
	goodRx    *Series // bytes/s received
	progress  *Series // bytes/s of ack+receive progress (stall evidence)
	retxRatio *Series // retransmits per sent record, per tick
	reorder   *Series // reorder heap depth
	mem       *Series // buffered bytes
	ackRTT    *Series // windowed ACK-RTT mean, µs
	resumeRej *Series // rejected fraction of resumption attempts
	admitRej  *Series // admission rejections/s

	paths map[uint32]*pathSeries

	trips [numKinds]trip
	// activeCount tracks raised verdicts for the Healthy transition.
	activeCount int
	everRaised  bool

	// recent keeps the last verdict transitions for Status.
	recent    []Verdict
	recentCap int
}

// NewMonitor builds a Monitor over src.
func NewMonitor(src Source, opt Options) *Monitor {
	if opt.Window <= 0 {
		opt.Window = 60
	}
	if opt.Interval <= 0 {
		opt.Interval = time.Second
	}
	opt.Rules = opt.Rules.withDefaults()
	return &Monitor{src: src, opt: opt, recentCap: 32}
}

// startLocked builds the rings and resolves the metric handles.
func (m *Monitor) startLocked() {
	w := m.opt.Window
	m.goodTx, m.goodRx, m.progress = NewSeries(w), NewSeries(w), NewSeries(w)
	m.retxRatio, m.reorder, m.mem, m.ackRTT = NewSeries(w), NewSeries(w), NewSeries(w), NewSeries(w)
	if m.opt.Process {
		m.resumeRej, m.admitRej = NewSeries(w), NewSeries(w)
	}
	m.paths = make(map[uint32]*pathSeries, 4)
	if m.opt.Metrics != nil {
		m.mt = m.opt.Metrics()
	}
}

// Poll pulls one sample and runs the diagnosis pass. Zero-alloc in
// steady state (no new paths, no verdict transitions).
func (m *Monitor) Poll(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.goodTx == nil {
		m.startLocked()
	}
	m.cur.atUS = now.UnixNano() / 1000
	m.src.HealthSample(&m.cur.Snapshot, &m.cur.proc)
	m.ingestLocked()
	m.diagnoseLocked()
	// The sample just taken becomes prev; the next fill reuses the rows
	// of the one before it.
	m.cur, m.prev = m.prev, m.cur
	m.havePrev = true
	m.ticks++
	if mt := m.mt; mt != nil {
		mt.Ticks.Inc()
	}
}

// ingestLocked pushes the derived series for the current sample.
func (m *Monitor) ingestLocked() {
	at := m.cur.atUS
	m.reorder.Push(at, float64(m.cur.ReorderDepth))
	m.mem.Push(at, float64(m.cur.MemoryBytes))
	if !m.havePrev {
		return
	}
	dt := float64(at-m.prev.atUS) / 1e6
	if dt <= 0 {
		dt = m.opt.Interval.Seconds()
	}
	dTx := float64(m.cur.BytesSent - m.prev.BytesSent)
	dRx := float64(m.cur.BytesReceived - m.prev.BytesReceived)
	dAcks := float64(m.cur.AcksReceived - m.prev.AcksReceived)
	m.goodTx.Push(at, dTx/dt)
	m.goodRx.Push(at, dRx/dt)
	m.progress.Push(at, (dRx+dAcks)/dt)
	dSent := m.cur.RecordsSent - m.prev.RecordsSent
	dRetx := m.cur.Retransmits - m.prev.Retransmits
	ratio := 0.0
	if dSent > 0 || dRetx > 0 {
		ratio = float64(dRetx) / float64(max(dSent, 1))
	}
	m.retxRatio.Push(at, ratio)
	if dc := m.cur.AckRTT.Count() - m.prev.AckRTT.Count(); dc > 0 {
		meanUS := (m.cur.AckRTT.Sum - m.prev.AckRTT.Sum) * 1e6 / float64(dc)
		m.ackRTT.Push(at, meanUS)
	} else if last, ok := m.ackRTT.Last(); ok {
		// Carry the last mean so the ring stays time-aligned across
		// quiet ticks.
		m.ackRTT.Push(at, last.V)
	}
	if m.opt.Process {
		att := (m.cur.proc.ResumeAccepted + m.cur.proc.ResumeRejected) -
			(m.prev.proc.ResumeAccepted + m.prev.proc.ResumeRejected)
		frac := 0.0
		if att > 0 {
			frac = float64(m.cur.proc.ResumeRejected-m.prev.proc.ResumeRejected) / float64(att)
		}
		m.resumeRej.Push(at, frac)
		m.admitRej.Push(at, float64(m.cur.proc.AdmissionRejected-m.prev.proc.AdmissionRejected)/dt)
	}
	// Per-path rings: find the previous row for each open connection by
	// ID (paths map), push the tick's goodput and SRTT.
	open := 0
	for i := range m.cur.Conns {
		p := &m.cur.Conns[i]
		if p.Closed {
			continue
		}
		open++
		ps := m.paths[p.ID]
		if ps == nil {
			ps = &pathSeries{
				goodTx:   NewSeries(m.opt.Window),
				srtt:     NewSeries(m.opt.Window),
				lastSeen: ^uint64(0), // fresh: no delta on first sight
			}
			m.paths[p.ID] = ps
		}
		if ps.lastSeen == m.ticks-1 || ps.lastSeen == m.ticks {
			ps.goodTx.Push(at, float64(p.BytesSent-ps.last.BytesSent)/dt)
		} else {
			// First sight (or re-sight after absence): no delta yet.
			ps.goodTx.Push(at, 0)
		}
		ps.srtt.Push(at, float64(p.SRTTUS))
		ps.last = *p
		ps.lastSeen = m.ticks
		if p.BytesSent > 0 {
			ps.everSent = true
		}
	}
	// Sweep paths gone from the sample (connection closed).
	if len(m.paths) > open {
		for id, ps := range m.paths {
			if ps.lastSeen != m.ticks {
				delete(m.paths, id)
			}
		}
	}
	if mt := m.mt; mt != nil {
		if v, ok := m.goodTx.Last(); ok {
			mt.GoodputTx.Set(int64(v.V))
		}
		if v, ok := m.goodRx.Last(); ok {
			mt.GoodputRx.Set(int64(v.V))
		}
		mt.RetxRatioPermille.Set(int64(ratio * 1000))
		mt.MemoryBytes.Set(int64(m.cur.MemoryBytes))
		if v, ok := m.ackRTT.Last(); ok {
			mt.AckRTTUS.Set(int64(v.V))
		}
	}
}

// diagnoseLocked runs the rule table over the rings and emits verdict
// transitions.
func (m *Monitor) diagnoseLocked() {
	if !m.havePrev {
		return
	}
	at := m.cur.atUS
	r := &m.opt.Rules
	if !m.opt.Process {
		// StallSuspected: outstanding data on a live connection, zero
		// ack/receive progress this tick.
		dAcks := m.cur.AcksReceived - m.prev.AcksReceived
		dRx := m.cur.BytesReceived - m.prev.BytesReceived
		stall := m.cur.ConnsLive > 0 &&
			m.cur.RetransmitBytes >= r.StallMinOutstanding &&
			dAcks == 0 && dRx == 0
		m.runRule(StallSuspected, stall, at, r.StallTicks, r.StallClearTicks,
			0, float64(m.cur.RetransmitBytes), m.progress, r.StallTicks)

		// RetransmitStorm: sustained retransmit-heavy ticks.
		dRetx := m.cur.Retransmits - m.prev.Retransmits
		dSent := m.cur.RecordsSent - m.prev.RecordsSent
		ratio := float64(dRetx) / float64(max(dSent, 1))
		storm := dRetx >= r.StormMinRetx && ratio > r.StormRatio
		m.runRule(RetransmitStorm, storm, at, r.StormTicks, r.StormClearTicks,
			0, ratio, m.retxRatio, r.StormTicks)

		// PathAsymmetry: among live paths that have ever carried data,
		// the busiest outruns the quietest by the configured ratio.
		if len(m.paths) >= 2 {
			var maxRate, minRate float64
			var minConn uint32
			count := 0
			for _, ps := range m.paths {
				if ps.last.Failed || !ps.everSent {
					continue
				}
				v, ok := ps.goodTx.Last()
				if !ok {
					continue
				}
				if count == 0 || v.V > maxRate {
					maxRate = v.V
				}
				if count == 0 || v.V < minRate {
					minRate = v.V
					minConn = ps.last.ID
				}
				count++
			}
			asym := count >= 2 && maxRate >= r.AsymMinBps &&
				maxRate >= r.AsymRatio*(minRate+1)
			ratio := 0.0
			if asym {
				ratio = maxRate / (minRate + 1)
			}
			m.runRule(PathAsymmetry, asym, at, r.AsymTicks, r.AsymClearTicks,
				minConn, ratio, m.goodTx, r.AsymTicks)
		} else {
			m.runRule(PathAsymmetry, false, at, r.AsymTicks, r.AsymClearTicks,
				0, 0, m.goodTx, r.AsymTicks)
		}
	}

	// MemoryGrowth applies to sessions and the process alike.
	last, _ := m.mem.Last()
	growth := last.V >= float64(r.MemGrowthFloor) &&
		m.mem.monotoneGrowth(r.MemGrowthTicks, r.MemGrowthFactor)
	m.runRule(MemoryGrowth, growth, at, 1, r.MemGrowthClearTicks,
		0, last.V, m.mem, r.MemGrowthTicks)

	if m.opt.Process {
		att := (m.cur.proc.ResumeAccepted + m.cur.proc.ResumeRejected) -
			(m.prev.proc.ResumeAccepted + m.prev.proc.ResumeRejected)
		dRej := m.cur.proc.ResumeRejected - m.prev.proc.ResumeRejected
		spike := att >= r.ResumeMinAttempts && float64(dRej) >= r.ResumeFailFrac*float64(att)
		frac := 0.0
		if att > 0 {
			frac = float64(dRej) / float64(att)
		}
		m.runRule(ResumeFailureSpike, spike, at, r.ResumeTicks, r.ResumeClearTicks,
			0, frac, m.resumeRej, r.ResumeTicks)

		pressure := m.cur.proc.AdmissionRejected > m.prev.proc.AdmissionRejected
		rate, _ := m.admitRej.Last()
		m.runRule(AdmissionPressure, pressure, at, r.AdmitTicks, r.AdmitClearTicks,
			0, rate.V, m.admitRej, r.AdmitTicks)
	}
}

// runRule advances one rule's hysteresis and emits on transitions.
func (m *Monitor) runRule(kind Kind, bad bool, atUS int64, need, clear int,
	conn uint32, value float64, evidence *Series, window int) {
	t := &m.trips[kind]
	raised, cleared := t.update(bad, atUS, need, clear)
	if raised {
		t.conn = conn
		t.value = value
		m.activeCount++
		m.everRaised = true
		v := Verdict{
			Kind:    kind,
			Name:    kind.String(),
			Key:     m.opt.Key,
			Raised:  true,
			Conn:    conn,
			AtUS:    atUS,
			SinceUS: t.sinceUS,
			Value:   value,
			Metric:  seriesName(kind),
			Detail:  detail(kind, conn, value),
		}
		if evidence != nil {
			v.Evidence = evidence.AppendWindow(make([]Point, 0, window), window)
		}
		m.emitLocked(v)
		return
	}
	if t.active {
		// Refresh the headline scalar while active so Status shows the
		// latest evidence, not the raise-time value.
		if bad {
			t.value = value
			if conn != 0 {
				t.conn = conn
			}
		}
	}
	if cleared {
		m.activeCount--
		m.emitLocked(Verdict{
			Kind:    kind,
			Name:    kind.String(),
			Key:     m.opt.Key,
			Raised:  false,
			Conn:    t.conn,
			AtUS:    atUS,
			SinceUS: t.sinceUS,
			Value:   t.value,
			Detail:  detail(kind, t.conn, t.value) + " (cleared)",
		})
		if m.activeCount == 0 && m.everRaised {
			m.emitLocked(Verdict{
				Kind:    Healthy,
				Name:    Healthy.String(),
				Key:     m.opt.Key,
				Raised:  true,
				AtUS:    atUS,
				SinceUS: atUS,
				Detail:  "all verdicts cleared",
			})
		}
	}
}

// emitLocked records a transition and fans it to the configured sinks.
func (m *Monitor) emitLocked(v Verdict) {
	if len(m.recent) >= m.recentCap {
		copy(m.recent, m.recent[1:])
		m.recent = m.recent[:len(m.recent)-1]
	}
	m.recent = append(m.recent, v)
	if mt := m.mt; mt != nil && v.Kind < numKinds {
		if v.Raised {
			mt.Verdicts[v.Kind].Inc()
		}
		if v.Kind != Healthy {
			if v.Raised {
				mt.Active[v.Kind].Set(1)
			} else {
				mt.Active[v.Kind].Set(0)
			}
		}
	}
	if m.opt.OnVerdict != nil {
		m.opt.OnVerdict(v)
	}
}

// ActiveVerdicts appends the currently-raised verdict kinds to dst.
func (m *Monitor) ActiveVerdicts(dst []Kind) []Kind {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := Kind(1); k < numKinds; k++ {
		if m.trips[k].active {
			dst = append(dst, k)
		}
	}
	return dst
}

// Ticks reports completed polls.
func (m *Monitor) Ticks() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticks
}

func detail(kind Kind, conn uint32, value float64) string {
	switch kind {
	case StallSuspected:
		return fmt.Sprintf("no ack/receive progress with %d bytes outstanding", int64(value))
	case RetransmitStorm:
		return fmt.Sprintf("retransmit ratio %.2f", value)
	case MemoryGrowth:
		return fmt.Sprintf("buffered memory ramping, now %d bytes", int64(value))
	case PathAsymmetry:
		return fmt.Sprintf("conn %d starved, goodput ratio %.0fx", conn, value)
	case ResumeFailureSpike:
		return fmt.Sprintf("resumption rejected fraction %.2f", value)
	case AdmissionPressure:
		return fmt.Sprintf("admission rejecting %.1f conns/s", value)
	}
	return kind.String()
}

// seriesName maps a verdict kind to its evidence series name.
func seriesName(kind Kind) string {
	switch kind {
	case StallSuspected:
		return "progress_bps"
	case RetransmitStorm:
		return "retransmit_ratio"
	case MemoryGrowth:
		return "memory_bytes"
	case PathAsymmetry:
		return "goodput_tx_bps"
	case ResumeFailureSpike:
		return "resume_rejected_frac"
	case AdmissionPressure:
		return "admission_rejects_per_s"
	}
	return ""
}
