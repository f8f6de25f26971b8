package tcpls

import (
	"time"

	"tcpls/internal/sched"
)

// PathScheduler decides which path carries each coupled record — the
// paper's application-exposed sender-side record scheduler (§3.3.3),
// upgraded from a stateless closure to a stateful interface fed by the
// path-metrics engine. See internal/sched for the interface contract.
type PathScheduler = sched.Scheduler

// PathView is the per-path metrics snapshot handed to
// PathScheduler.Pick: fused SRTT/RTTVar, bytes in flight, loss count,
// and the EWMA delivery rate.
type PathView = sched.PathView

// PickAll, returned from PathScheduler.Pick, duplicates the record
// across every path (the Redundant policy).
const PickAll = sched.PickAll

// Built-in scheduler constructors. Each call returns a fresh instance;
// schedulers are stateful and must not be shared across sessions.
var (
	// SchedRoundRobin cycles paths by record index (the default).
	SchedRoundRobin = sched.RoundRobin
	// SchedLowestRTT prefers the path with the smallest fused SRTT.
	SchedLowestRTT = sched.LowestRTT
	// SchedWeightedRate splits records proportionally to delivery rate
	// — the bandwidth-aggregation workhorse.
	SchedWeightedRate = sched.WeightedRate
	// SchedRedundant seals every record on every path; the receiver's
	// aggregation-sequence reordering deduplicates.
	SchedRedundant = sched.Redundant
)

// SetPathScheduler installs a stateful multipath record scheduler for
// the session's coupled streams and starts the kernel TCP_INFO
// refresher that keeps its path metrics warm. Use the Sched*
// constructors (or Config.Scheduler at session creation), the names in
// internal/sched, or any PathScheduler implementation.
func (s *Session) SetPathScheduler(ps PathScheduler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine.SetPathScheduler(ps)
	if ps != nil {
		s.startPathMetricsLoopLocked()
	}
}

// startPathMetricsLoopLocked launches the kernel refresher once. The
// caller holds s.mu.
func (s *Session) startPathMetricsLoopLocked() {
	if s.metricsLoopOn || s.closed {
		return
	}
	s.metricsLoopOn = true
	interval := s.cfg.PathMetricsInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	go s.pathMetricsLoop(interval)
}

// pathMetricsLoop periodically folds kernel TCP_INFO snapshots of every
// live connection into the path-metrics engine (§3.3.3's tcp_info
// plumbing) and emits path_metrics trace events with the fused view.
func (s *Session) pathMetricsLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.refreshPathMetrics()
		}
	}
}

// refreshPathMetrics reads TCP_INFO outside the session lock (it is a
// per-fd getsockopt) and folds the results in. On non-Linux platforms
// fillKernelInfo is a no-op and only ACK-driven metrics flow.
func (s *Session) refreshPathMetrics() {
	s.mu.Lock()
	type target struct {
		id uint32
		pc *pathConn
	}
	var targets []target
	for _, c := range s.drv.Conns() {
		if pc, ok := c.T.(*pathConn); ok && !s.engine.ConnFailed(c.ID) {
			targets = append(targets, target{c.ID, pc})
		}
	}
	s.mu.Unlock()

	for _, tg := range targets {
		var info ConnInfo
		fillKernelInfo(tg.pc.nc, &info)
		if !info.Kernel {
			continue
		}
		// cwnd*mss/srtt approximates the first hop's sustainable rate —
		// a stand-in until end-to-end ACK samples exist.
		var rateHint float64
		if info.RTT > 0 {
			rateHint = float64(info.SndCwnd) * float64(info.SndMSS) / info.RTT.Seconds()
		}
		s.metrics.UpdateKernel(tg.id, info.RTT, info.RTTVar, rateHint)
	}

	s.mu.Lock()
	for _, tg := range targets {
		s.engine.NotePathMetrics(tg.id)
	}
	s.mu.Unlock()
}
