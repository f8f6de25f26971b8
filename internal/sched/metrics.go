package sched

import (
	"sync"
	"time"
)

// Metrics is the per-session path-metrics store: one entry per TCP
// connection. Record-level acknowledgments (available whenever
// failover's ACK machinery is on) drive an RFC 6298 SRTT/RTTVar
// estimator, a bytes-in-flight gauge, a loss counter, and a
// delivery-rate EWMA.
//
// All methods are safe for concurrent use.
type Metrics struct {
	mu    sync.Mutex
	paths map[uint32]*pathState
}

// rateGain is the EWMA weight of a fresh delivery-rate sample.
const rateGain = 0.25

type pathState struct {
	srtt   time.Duration
	rttvar time.Duration
	hasRTT bool

	inFlight uint64
	losses   uint64

	rate       float64 // ACK-driven EWMA, bytes per second
	hasRate    bool
	lastAck    time.Time
	ackedSince uint64
}

// PathStats is an exported snapshot of one path's metrics.
type PathStats struct {
	SRTT         time.Duration
	RTTVar       time.Duration
	HasRTT       bool
	InFlight     uint64
	Losses       uint64
	DeliveryRate float64 // bytes per second
	HasRate      bool
}

// NewMetrics returns an empty metrics store.
func NewMetrics() *Metrics {
	return &Metrics{paths: make(map[uint32]*pathState)}
}

// path returns conn's state, creating it on first touch. Caller holds mu.
func (m *Metrics) path(conn uint32) *pathState {
	p, ok := m.paths[conn]
	if !ok {
		p = &pathState{}
		m.paths[conn] = p
	}
	return p
}

// OnSent records bytes sealed onto conn and not yet acknowledged.
func (m *Metrics) OnSent(conn uint32, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.path(conn).inFlight += uint64(bytes)
}

// OnAcked records an acknowledgment covering bytes on conn. rtt > 0
// feeds the RFC 6298 estimator; pass 0 when Karn's algorithm rejects
// the sample (retransmitted records). now timestamps the ack for the
// delivery-rate EWMA; the zero time skips rate sampling.
func (m *Metrics) OnAcked(conn uint32, bytes int, rtt time.Duration, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.path(conn)
	if p.inFlight >= uint64(bytes) {
		p.inFlight -= uint64(bytes)
	} else {
		p.inFlight = 0
	}
	if rtt > 0 {
		p.observeRTT(rtt)
	}
	if now.IsZero() {
		return
	}
	p.ackedSince += uint64(bytes)
	if p.lastAck.IsZero() {
		p.lastAck = now
		p.ackedSince = 0
		return
	}
	elapsed := now.Sub(p.lastAck)
	if elapsed <= 0 {
		return // several acks in one receive batch: keep accumulating
	}
	sample := float64(p.ackedSince) / elapsed.Seconds()
	if p.hasRate {
		p.rate = (1-rateGain)*p.rate + rateGain*sample
	} else {
		p.rate, p.hasRate = sample, true
	}
	p.lastAck = now
	p.ackedSince = 0
}

// observeRTT folds one clean sample into the RFC 6298 estimator.
func (p *pathState) observeRTT(s time.Duration) {
	if !p.hasRTT {
		p.srtt, p.rttvar, p.hasRTT = s, s/2, true
		return
	}
	d := p.srtt - s
	if d < 0 {
		d = -d
	}
	p.rttvar = (3*p.rttvar + d) / 4
	p.srtt = (7*p.srtt + s) / 8
}

// OnLost records one record of bytes declared lost on conn (failover
// replay): the loss counter advances and the bytes leave flight — the
// replay re-enters it on the target path.
func (m *Metrics) OnLost(conn uint32, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.path(conn)
	if p.inFlight >= uint64(bytes) {
		p.inFlight -= uint64(bytes)
	} else {
		p.inFlight = 0
	}
	p.losses++
}

// Fill populates v's metric fields from the state keyed by v.Conn.
func (m *Metrics) Fill(v *PathView) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.paths[v.Conn]
	if !ok {
		return
	}
	v.SRTT, v.RTTVar, v.HasRTT = p.srtt, p.rttvar, p.hasRTT
	v.InFlight, v.Losses = p.inFlight, p.losses
	v.DeliveryRate, v.HasRate = p.rate, p.hasRate
}

// Snapshot returns conn's current stats.
func (m *Metrics) Snapshot(conn uint32) (PathStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.paths[conn]
	if !ok {
		return PathStats{}, false
	}
	return PathStats{
		SRTT:         p.srtt,
		RTTVar:       p.rttvar,
		HasRTT:       p.hasRTT,
		InFlight:     p.inFlight,
		Losses:       p.losses,
		DeliveryRate: p.rate,
		HasRate:      p.hasRate,
	}, true
}

// Forget drops conn's state (connection closed or failed for good).
func (m *Metrics) Forget(conn uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.paths, conn)
}
