// Package sim is a discrete-event network simulator: the substitute for
// the paper's Mininet testbed (Sec. 5.3–5.6). It provides a virtual
// clock with an event queue and duplex links with configurable rate,
// propagation delay and drop-tail queues, plus the failure injection the
// failover experiments need — blackholes and spurious RSTs.
//
// Determinism is the point: every run of an experiment produces the same
// packet schedule, so the figures regenerated from this simulator are
// exactly reproducible.
package sim

import (
	"container/heap"
	"time"
)

// Time is simulated time since the start of the run.
type Time = time.Duration

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among same-time events
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Sim is one simulation run.
type Sim struct {
	now Time
	q   eventQueue
	seq uint64
}

// New returns an empty simulation at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn at absolute time t (clamped to now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.q, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn after delay d.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Step runs the next event. It returns false when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.q) == 0 {
		return false
	}
	e := heap.Pop(&s.q).(*event)
	s.now = e.at
	e.fn()
	return true
}

// RunUntil processes events up to and including time t.
func (s *Sim) RunUntil(t Time) {
	for len(s.q) > 0 && s.q[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Run drains the event queue completely (use with care: transports with
// keepalive timers never drain; prefer RunUntil).
func (s *Sim) Run() {
	for s.Step() {
	}
}

// Packet is an opaque unit crossing a link. Size drives serialization
// time; Data carries the transport's payload. Deliver, when set,
// overrides the link's Deliver — this is how several flows share one
// bottleneck link, each routing its packets to its own endpoint.
type Packet struct {
	Size    int
	Data    interface{}
	Deliver func(pkt Packet)
}

// Link is a unidirectional link: fixed rate, propagation delay, and a
// drop-tail queue measured in bytes. Mark Down to blackhole it (the
// Sec. 5.3 outage model: packets vanish, no error signal).
type Link struct {
	Sim *Sim
	// RateBps is the line rate in bits per second.
	RateBps int64
	// Delay is the one-way propagation delay.
	Delay Time
	// QueueBytes bounds the transmission backlog (drop-tail). Zero
	// means a default of one bandwidth-delay product (min 64 KiB).
	QueueBytes int
	// Deliver receives packets at the far end.
	Deliver func(pkt Packet)
	// Down blackholes the link.
	Down bool

	busyUntil Time

	// Counters.
	Delivered uint64
	Dropped   uint64
	BytesSent uint64
}

// queueLimit returns the effective queue bound.
func (l *Link) queueLimit() int {
	if l.QueueBytes > 0 {
		return l.QueueBytes
	}
	bdp := int(l.RateBps / 8 * int64(l.Delay) / int64(time.Second))
	if bdp < 64<<10 {
		bdp = 64 << 10
	}
	return bdp
}

// backlogBytes computes the bytes currently waiting to serialize.
func (l *Link) backlogBytes() int {
	if l.busyUntil <= l.Sim.now {
		return 0
	}
	return int(int64(l.busyUntil-l.Sim.now) * l.RateBps / 8 / int64(time.Second))
}

// Send enqueues a packet. It returns false if the packet was dropped
// (queue overflow or link down).
func (l *Link) Send(pkt Packet) bool {
	if l.Down {
		l.Dropped++
		return false
	}
	if l.backlogBytes()+pkt.Size > l.queueLimit() {
		l.Dropped++
		return false
	}
	start := l.busyUntil
	if start < l.Sim.now {
		start = l.Sim.now
	}
	txTime := Time(int64(pkt.Size) * 8 * int64(time.Second) / l.RateBps)
	l.busyUntil = start + txTime
	arrive := l.busyUntil + l.Delay
	l.BytesSent += uint64(pkt.Size)
	deliver := pkt.Deliver
	if deliver == nil {
		deliver = l.Deliver
	}
	l.Sim.At(arrive, func() {
		// A link taken down while packets are in flight still loses
		// them: check at delivery time too.
		if l.Down {
			l.Dropped++
			return
		}
		l.Delivered++
		if deliver != nil {
			deliver(pkt)
		}
	})
	return true
}

// SetRateBps changes the line rate mid-run — the netem "tc change"
// equivalent used for asymmetric-path degradation faults. The current
// serialization backlog is carried over: bytes already queued finish
// transmitting at the new rate, so a rate cut visibly stretches the
// queue instead of silently teleporting it.
func (l *Link) SetRateBps(bps int64) {
	if bps <= 0 || bps == l.RateBps {
		if bps > 0 {
			l.RateBps = bps
		}
		return
	}
	backlog := int64(l.backlogBytes())
	l.RateBps = bps
	if backlog > 0 {
		l.busyUntil = l.Sim.now + Time(backlog*8*int64(time.Second)/bps)
	}
}

// Path is a duplex link pair between two endpoints.
type Path struct {
	AtoB *Link
	BtoA *Link
}

// NewPath builds a symmetric duplex path.
func NewPath(s *Sim, rateBps int64, oneWayDelay Time) *Path {
	return &Path{
		AtoB: &Link{Sim: s, RateBps: rateBps, Delay: oneWayDelay},
		BtoA: &Link{Sim: s, RateBps: rateBps, Delay: oneWayDelay},
	}
}

// SetDown blackholes or restores both directions.
func (p *Path) SetDown(down bool) {
	p.AtoB.Down = down
	p.BtoA.Down = down
}

// SetDownDir blackholes or restores one direction only — the stall
// model: the forward direction keeps flowing while returning data and
// ACKs vanish (or vice versa), which only an application-layer timeout
// can detect.
func (p *Path) SetDownDir(aToB bool, down bool) {
	if aToB {
		p.AtoB.Down = down
	} else {
		p.BtoA.Down = down
	}
}

// RTT returns the path's base round-trip time.
func (p *Path) RTT() Time { return p.AtoB.Delay + p.BtoA.Delay }

// Topology groups paths into failure domains ("racks") for correlated
// fault injection: a campaign that kills every path through one rack
// models the top-of-rack switch dying, the fleet-scale failure mode a
// single-session test can never exercise. Paths may belong to at most
// one rack; rack IDs are small dense integers chosen by the caller.
type Topology struct {
	s     *Sim
	racks map[int][]*Path
}

// NewTopology returns an empty topology on s.
func NewTopology(s *Sim) *Topology {
	return &Topology{s: s, racks: map[int][]*Path{}}
}

// Attach places a path in a rack.
func (t *Topology) Attach(rack int, p *Path) {
	t.racks[rack] = append(t.racks[rack], p)
}

// SetRackDown blackholes or restores every path in rack — the
// correlated multi-session outage. Paths are walked in attach order, so
// the fault is deterministic.
func (t *Topology) SetRackDown(rack int, down bool) {
	for _, p := range t.racks[rack] {
		p.SetDown(down)
	}
}
