// Package simtcp models TCP over the discrete-event simulator: slow
// start and congestion avoidance via a pluggable cc.Algorithm, RTT
// estimation from timestamp echoes, fast retransmit on three duplicate
// acks, retransmission timeouts with exponential backoff, receiver-side
// reassembly, and RST/blackhole failure signalling.
//
// It stands in for the Linux kernel TCP stack under the paper's Mininet
// experiments (Sec. 5.3–5.6): goodput dynamics there are produced by
// exactly these mechanisms, not by kernel implementation detail.
package simtcp

import (
	"sort"
	"time"

	"tcpls/internal/cc"
	"tcpls/internal/sim"
)

// Options configures one connection endpoint.
type Options struct {
	// MSS is the payload bytes per segment (default cc.DefaultMSS).
	MSS int
	// CC names the congestion controller ("newreno", "cubic", "vegas");
	// default newreno. Algorithm overrides it when non-nil.
	CC        string
	Algorithm cc.Algorithm
}

func (o Options) mss() int {
	if o.MSS > 0 {
		return o.MSS
	}
	return cc.DefaultMSS
}

func (o Options) algorithm() cc.Algorithm {
	if o.Algorithm != nil {
		return o.Algorithm
	}
	return cc.New(o.CC, o.mss())
}

// segment is one TCP segment in the simulator.
type segment struct {
	seq     uint64 // first byte offset
	payload []byte
	ack     uint64   // cumulative ack (always valid)
	ts      sim.Time // sender timestamp
	tsEcho  sim.Time // echoed timestamp (on acks)
	rst     bool
	fin     bool
	syn     bool // connection establishment request
	synAck  bool // connection establishment reply
	// dupData marks an ack triggered by a fully-duplicate data segment
	// (DSACK, RFC 2883): the sender must not count it as a duplicate
	// ack, or its own retransmissions would re-trigger loss recovery.
	dupData bool
	// sacks reports the receiver's out-of-order byte ranges
	// [start, end), merged and sorted (SACK, RFC 2018). The sender's
	// scoreboard uses them to retransmit exactly the holes.
	sacks [][2]uint64
}

const headerSize = 40 // IP + TCP header bytes for link accounting

// Conn is one endpoint of a simulated TCP connection.
type Conn struct {
	s    *sim.Sim
	out  *sim.Link // towards the peer
	peer *Conn     // delivery target (segments route per packet)
	mss  int
	cc   cc.Algorithm
	Name string // for experiment traces

	established bool
	failed      bool
	finSent     bool

	// Callbacks.
	OnRecv        func(p []byte)  // in-order payload delivery
	OnReset       func()          // RST received
	OnAcked       func()          // new data acked (send-progress hook)
	OnRTO         func(count int) // consecutive retransmission timeouts
	OnEstablished func()          // handshake completed

	// Sender state.
	sndUna       uint64
	sndNxt       uint64
	buf          []byte // unsent+unacked bytes, buf[0] is offset sndUna
	dupAcks      int
	recover      uint64 // recovery point: loss episode ends at this offset
	inRecovery   bool
	sacked       [][2]uint64 // scoreboard: peer-reported ooo ranges
	retxUpTo     uint64      // holes below this were already retransmitted
	retxBudget   int         // packet-conservation budget for hole retransmits
	lastHeadRetx sim.Time    // rescue-retransmission pacing
	rescueGen    int         // rescue-timer generation
	rescueSndUna uint64      // progress marker between rescue probes
	rtoCount     int         // consecutive RTOs without progress
	rtoTimer     int         // generation counter to cancel stale timers
	rtoBackoff   int
	srtt         time.Duration
	rttvar       time.Duration
	lastEcho     sim.Time // latest ts to echo back

	// Receiver state.
	rcvNxt   uint64
	ooo      map[uint64][]byte
	oooCache [][2]uint64 // merged SACK ranges, rebuilt when oooDirty
	oooDirty bool

	// Stats.
	BytesAcked    uint64
	BytesDeliverd uint64
	Retransmits   uint64
}

// Connect establishes a pair of connection endpoints across path,
// modeling a real SYN / SYN-ACK exchange: the SYN actually traverses the
// link, so connecting over a blackholed path retries with exponential
// backoff and eventually fails — the cost Fig. 9's path hunting measures.
func Connect(s *sim.Sim, path *sim.Path, clientOpts, serverOpts Options) (client, server *Conn) {
	return ConnectOn(s, path.AtoB, path.BtoA, clientOpts, serverOpts)
}

// Connect timeouts: SYN retransmission starts at synRTOBase and doubles;
// after synMaxTries the connection fails (Linux defaults are longer; the
// experiments use these to keep figure timescales readable, like
// Mininet-tuned kernels).
const (
	synRTOBase  = 1 * time.Second
	synMaxTries = 3
)

// ConnectOn establishes a connection whose segments traverse the given
// links. Several connections may share the same links — the shared-
// bottleneck topology of the Fig. 12 fairness experiment — because each
// segment routes to its own endpoint.
func ConnectOn(s *sim.Sim, toServer, toClient *sim.Link, clientOpts, serverOpts Options) (client, server *Conn) {
	client = &Conn{s: s, out: toServer, mss: clientOpts.mss(), cc: clientOpts.algorithm(), ooo: map[uint64][]byte{}, rtoBackoff: 1, Name: "client"}
	server = &Conn{s: s, out: toClient, mss: serverOpts.mss(), cc: serverOpts.algorithm(), ooo: map[uint64][]byte{}, rtoBackoff: 1, Name: "server"}
	client.peer = server
	server.peer = client

	var trySyn func(attempt int)
	trySyn = func(attempt int) {
		if client.established || client.failed {
			return
		}
		if attempt >= synMaxTries {
			client.fail()
			return
		}
		client.send(headerSize, &segment{syn: true})
		s.After(synRTOBase<<attempt, func() { trySyn(attempt + 1) })
	}
	trySyn(0)
	return client, server
}

// handleSyn runs connection establishment on both endpoints.
func (c *Conn) handleSyn(seg *segment) {
	switch {
	case seg.syn && !c.established:
		// Server side: SYN received, reply SYN-ACK, consider
		// established (the first data segment carries the final ack).
		c.established = true
		c.send(headerSize, &segment{synAck: true})
		if c.OnEstablished != nil {
			c.OnEstablished()
		}
		c.trySend()
	case seg.syn:
		c.send(headerSize, &segment{synAck: true}) // duplicate SYN
	case seg.synAck && !c.established:
		c.established = true
		if c.OnEstablished != nil {
			c.OnEstablished()
		}
		c.trySend()
	}
}

// send routes one segment to the peer endpoint over the outgoing link.
func (c *Conn) send(size int, seg *segment) bool {
	peer := c.peer
	return c.out.Send(sim.Packet{Size: size, Data: seg, Deliver: func(p sim.Packet) {
		peer.handleSegment(p.Data.(*segment))
	}})
}

// Established reports whether the handshake completed.
func (c *Conn) Established() bool { return c.established }

// Failed reports whether the connection was reset.
func (c *Conn) Failed() bool { return c.failed }

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Cwnd returns the congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cc.Window() }

// InFlight returns unacknowledged bytes.
func (c *Conn) InFlight() int { return int(c.sndNxt - c.sndUna) }

// Buffered returns bytes queued but not yet sent.
func (c *Conn) Buffered() int { return len(c.buf) - c.InFlight() }

// SetAlgorithm hot-swaps the congestion controller — the attachment step
// of the paper's §4.4 eBPF mechanism.
func (c *Conn) SetAlgorithm(a cc.Algorithm) { c.cc = a }

// Algorithm returns the current controller.
func (c *Conn) Algorithm() cc.Algorithm { return c.cc }

// Write queues application bytes for transmission.
func (c *Conn) Write(p []byte) {
	if c.failed {
		return
	}
	c.buf = append(c.buf, p...)
	c.trySend()
}

// Reset aborts the connection, delivering a RST to the peer (the
// Sec. 5.3 "spurious RST" injection) and failing this endpoint.
func (c *Conn) Reset() {
	if c.failed {
		return
	}
	c.fail()
	c.send(headerSize, &segment{rst: true})
}

func (c *Conn) fail() {
	if c.failed {
		return
	}
	c.failed = true
	c.rtoTimer++ // cancel pending timers
	if c.OnReset != nil {
		c.OnReset()
	}
}

// sackedBytes returns the scoreboard total.
func (c *Conn) sackedBytes() int {
	total := 0
	for _, r := range c.sacked {
		total += int(r[1] - r[0])
	}
	return total
}

// isSacked reports whether [seq, seq+n) is fully covered by a SACK range.
func (c *Conn) isSacked(seq uint64, n int) bool {
	for _, r := range c.sacked {
		if seq >= r[0] && seq+uint64(n) <= r[1] {
			return true
		}
	}
	return false
}

// trySend transmits as much as flow state allows: hole retransmissions
// first (during recovery), then new data, both bounded by cwnd - pipe.
func (c *Conn) trySend() {
	if !c.established || c.failed {
		return
	}
	hadFlight := c.InFlight() > 0
	// Retransmit scoreboard holes under packet conservation: each ack
	// that reports delivery (cumulative advance or new SACKed bytes)
	// funds an equal amount of retransmission, so recovery keeps the
	// ack clock without re-bursting into the queue that just overflowed.
	if c.inRecovery && c.retxBudget > 0 {
		high := uint64(0)
		if len(c.sacked) > 0 {
			high = c.sacked[len(c.sacked)-1][1]
		}
		spent := c.retxBudget - c.retransmitHoles(c.retxBudget, high)
		c.retxBudget -= spent
	}
	// New data. Outside recovery, bounded by cwnd. During recovery,
	// only the delivery-funded budget left over after hole retransmits
	// may be spent on new data (packet conservation keeps the ack clock
	// alive without re-bursting).
	for {
		if c.inRecovery && c.retxBudget <= 0 {
			break
		}
		flight := c.InFlight()
		avail := len(c.buf) - flight
		if avail <= 0 || flight >= c.cc.Window() {
			break
		}
		n := avail
		if n > c.mss {
			n = c.mss
		}
		if flight+n > c.cc.Window() {
			n = c.cc.Window() - flight
			if n <= 0 {
				break
			}
		}
		if c.inRecovery {
			if n > c.retxBudget {
				n = c.retxBudget
			}
			c.retxBudget -= n
		}
		payload := append([]byte(nil), c.buf[flight:flight+n]...)
		seg := &segment{
			seq:     c.sndNxt,
			payload: payload,
			ack:     c.rcvNxt,
			ts:      c.s.Now(),
			tsEcho:  c.lastEcho,
			sacks:   c.oooRanges(),
		}
		c.sndNxt += uint64(n)
		c.send(n+headerSize, seg)
	}
	if !hadFlight && c.InFlight() > 0 {
		c.armRTO()
	}
}

// rto computes the current retransmission timeout.
func (c *Conn) rto() time.Duration {
	base := c.srtt + 4*c.rttvar
	if base < 200*time.Millisecond {
		base = 200 * time.Millisecond
	}
	return base * time.Duration(c.rtoBackoff)
}

func (c *Conn) armRTO() {
	c.rtoTimer++
	gen := c.rtoTimer
	c.s.After(c.rto(), func() { c.onRTO(gen) })
}

func (c *Conn) onRTO(gen int) {
	if gen != c.rtoTimer || c.failed {
		return // superseded by progress
	}
	if c.InFlight() == 0 {
		return
	}
	c.cc.OnRTO(c.s.Now())
	c.rtoBackoff *= 2
	if c.rtoBackoff > 64 {
		c.rtoBackoff = 64
	}
	c.rtoCount++
	if c.OnRTO != nil {
		c.OnRTO(c.rtoCount)
	}
	if c.failed {
		return // OnRTO hook may have reset the connection
	}
	c.inRecovery = false
	c.dupAcks = 0
	c.sacked = nil
	// Go-back-N: rewind and retransmit from sndUna.
	c.sndNxt = c.sndUna
	c.Retransmits++
	c.trySend()
	if c.InFlight() > 0 {
		c.armRTO()
	}
}

// retransmitHoles walks the scoreboard from retxUpTo up to high
// (clamped to the recovery point), retransmitting unsacked ranges within
// the byte budget. It returns the unspent budget.
func (c *Conn) retransmitHoles(budget int, high uint64) int {
	// Only data sent before this loss episode is eligible: bytes above
	// the recovery point are in flight, not lost — without this bound
	// every fresh segment would be blanket-retransmitted.
	if high > c.recover {
		high = c.recover
	}
	if c.retxUpTo < c.sndUna {
		c.retxUpTo = c.sndUna
	}
	for c.retxUpTo < high && budget > 0 {
		n := c.mss
		if rem := int(high - c.retxUpTo); rem < n {
			n = rem
		}
		if avail := len(c.buf) - int(c.retxUpTo-c.sndUna); n > avail {
			n = avail
		}
		if n <= 0 {
			break
		}
		if !c.isSacked(c.retxUpTo, n) {
			off := int(c.retxUpTo - c.sndUna)
			payload := append([]byte(nil), c.buf[off:off+n]...)
			seg := &segment{
				seq:     c.retxUpTo,
				payload: payload,
				ack:     c.rcvNxt,
				ts:      c.s.Now(),
				tsEcho:  c.lastEcho,
				sacks:   c.oooRanges(),
			}
			c.Retransmits++
			c.send(n+headerSize, seg)
			budget -= n
		}
		c.retxUpTo += uint64(n)
	}
	return budget
}

// enterRecovery starts a fast-recovery episode: one congestion-window
// reduction per episode, retransmission of the head segment, then
// scoreboard-driven hole filling.
func (c *Conn) enterRecovery() {
	c.inRecovery = true
	c.recover = c.sndNxt
	c.retxUpTo = c.sndUna
	c.rescueSndUna = c.sndUna
	c.retxBudget = 3 * c.mss // initial burst, then packet conservation
	c.cc.OnLoss(c.s.Now())
	c.retransmitFirst()
	c.trySend()
	c.armRescue()
}

// armRescue schedules a probe retransmission (a tail-loss-probe-like
// timer): retransmissions sent into a full queue are themselves dropped,
// and once the in-flight data drains no acks arrive to trigger recovery
// progress — without this probe only the (much longer, backed-off) RTO
// would resolve the stall.
func (c *Conn) armRescue() {
	c.rescueGen++
	gen := c.rescueGen
	gate := 2 * c.srtt
	if gate < 20*time.Millisecond {
		gate = 20 * time.Millisecond
	}
	c.s.After(gate, func() { c.onRescue(gen) })
}

func (c *Conn) onRescue(gen int) {
	if gen != c.rescueGen || c.failed || !c.inRecovery {
		return
	}
	// Only act when the recovery is genuinely stalled: no cumulative
	// progress since the previous probe. A stalled recovery means the
	// retransmissions themselves were lost, or a dropped burst tail
	// left no SACKs to walk — refill the whole unsacked region below
	// the recovery point, a window's worth per probe. When progress is
	// happening, the SACK walk is doing its job; probing would only
	// inject duplicates.
	if c.InFlight() > 0 && c.sndUna == c.rescueSndUna {
		c.lastHeadRetx = c.s.Now()
		if !c.isSacked(c.sndUna, 1) {
			c.retransmitFirst()
		}
		c.retxUpTo = c.sndUna
		budget := c.cc.Window()
		c.retransmitHoles(budget, c.sndUna+uint64(budget))
		c.retxBudget = 0
	}
	c.rescueSndUna = c.sndUna
	c.armRescue()
}

// retransmitFirst resends the segment at sndUna (fast retransmit).
func (c *Conn) retransmitFirst() {
	n := len(c.buf)
	if n > c.mss {
		n = c.mss
	}
	if n == 0 {
		return
	}
	payload := append([]byte(nil), c.buf[:n]...)
	seg := &segment{
		seq:     c.sndUna,
		payload: payload,
		ack:     c.rcvNxt,
		ts:      c.s.Now(),
		tsEcho:  c.lastEcho,
		sacks:   c.oooRanges(),
	}
	c.Retransmits++
	c.send(n+headerSize, seg)
}

func (c *Conn) sendAck(dupData bool) {
	seg := &segment{
		seq:     c.sndNxt,
		ack:     c.rcvNxt,
		ts:      c.s.Now(),
		tsEcho:  c.lastEcho,
		dupData: dupData,
		sacks:   c.oooRanges(),
	}
	c.send(headerSize, seg)
}

// oooRanges reports the receiver's buffered out-of-order data as merged
// SACK ranges. The list is maintained incrementally on insert and drain:
// with sequential arrivals behind a hole the common case is an O(1)
// extension of the last range.
func (c *Conn) oooRanges() [][2]uint64 { return c.oooCache }

// oooInsert merges [start, end) into the sorted range list.
func (c *Conn) oooInsert(start, end uint64) {
	rs := c.oooCache
	// Fast path: extend or append after the last range.
	if n := len(rs); n == 0 || start > rs[n-1][1] {
		c.oooCache = append(rs, [2]uint64{start, end})
		return
	} else if start == rs[n-1][1] {
		rs[n-1][1] = end
		return
	}
	// General path: binary search for the first overlapping or later range.
	lo := sort.Search(len(rs), func(i int) bool { return rs[i][1] >= start })
	hi := lo
	for hi < len(rs) && rs[hi][0] <= end {
		if rs[hi][0] < start {
			start = rs[hi][0]
		}
		if rs[hi][1] > end {
			end = rs[hi][1]
		}
		hi++
	}
	out := append(rs[:lo:lo], [2]uint64{start, end})
	c.oooCache = append(out, rs[hi:]...)
}

// oooTrim drops range bytes below rcvNxt after a drain.
func (c *Conn) oooTrim() {
	rs := c.oooCache
	i := 0
	for i < len(rs) && rs[i][1] <= c.rcvNxt {
		i++
	}
	rs = rs[i:]
	if len(rs) > 0 && rs[0][0] < c.rcvNxt {
		rs[0][0] = c.rcvNxt
	}
	c.oooCache = rs
}

// handleSegment processes one arriving segment.
func (c *Conn) handleSegment(seg *segment) {
	if c.failed {
		return
	}
	if seg.rst {
		c.fail()
		return
	}
	if seg.syn || seg.synAck {
		c.handleSyn(seg)
		return
	}
	// RTT sample from the echoed timestamp.
	if seg.tsEcho > 0 {
		sample := time.Duration(c.s.Now() - seg.tsEcho)
		if sample > 0 {
			if c.srtt == 0 {
				c.srtt = sample
				c.rttvar = sample / 2
			} else {
				d := c.srtt - sample
				if d < 0 {
					d = -d
				}
				c.rttvar = (3*c.rttvar + d) / 4
				c.srtt = (7*c.srtt + sample) / 8
			}
		}
	}

	// The scoreboard mirrors the receiver's current out-of-order state:
	// links are FIFO, so the latest segment is authoritative and simply
	// replaces it (empty means the receiver has no holes).
	prevSacked := c.sackedBytes()
	prevUna := c.sndUna
	c.sacked = seg.sacks
	// SACK-based loss detection (RFC 6675): three segments' worth of
	// out-of-order data means the head segment is lost; no need to
	// count duplicate acks.
	if !c.inRecovery && c.sackedBytes() >= 3*c.mss && c.InFlight() > 0 {
		c.enterRecovery()
	}
	c.processAck(seg)
	if c.inRecovery {
		delivered := int(c.sndUna - prevUna)
		if ds := c.sackedBytes() - prevSacked; ds > 0 {
			delivered += ds
		}
		if delivered > 0 {
			c.retxBudget += delivered
			c.trySend()
		}
	}

	if len(seg.payload) > 0 {
		c.processData(seg)
	}
}

func (c *Conn) processAck(seg *segment) {
	switch {
	case seg.ack > c.sndUna:
		acked := int(seg.ack - c.sndUna)
		c.sndUna = seg.ack
		if c.sndNxt < c.sndUna {
			// An RTO rewound sndNxt while old segments were still in
			// flight; their acks can overtake the rewound point.
			c.sndNxt = c.sndUna
		}
		c.buf = c.buf[acked:]
		c.BytesAcked += uint64(acked)
		c.dupAcks = 0
		c.rtoBackoff = 1
		c.rtoCount = 0
		if c.inRecovery && seg.ack >= c.recover {
			c.inRecovery = false
		}
		sample := time.Duration(0)
		if seg.tsEcho > 0 {
			sample = time.Duration(c.s.Now() - seg.tsEcho)
		}
		c.cc.OnAck(acked, sample, c.s.Now())
		if c.InFlight() > 0 {
			c.armRTO()
		} else {
			c.rtoTimer++ // cancel
		}
		c.trySend()
		if c.OnAcked != nil {
			c.OnAcked()
		}
	case seg.ack == c.sndUna && c.InFlight() > 0 && len(seg.payload) == 0 && !seg.dupData:
		c.dupAcks++
		if c.dupAcks == 3 && !c.inRecovery {
			c.enterRecovery()
		}
	}
}

func (c *Conn) processData(seg *segment) {
	c.lastEcho = seg.ts
	dupData := false
	switch {
	case seg.seq == c.rcvNxt:
		c.deliver(seg.payload)
		c.drainOOO()
	case seg.seq > c.rcvNxt:
		if _, dup := c.ooo[seg.seq]; !dup {
			c.ooo[seg.seq] = append([]byte(nil), seg.payload...)
			c.oooInsert(seg.seq, seg.seq+uint64(len(seg.payload)))
		} else {
			dupData = true
		}
	default:
		// Retransmission overlap. Deliver any new suffix, flag the rest
		// as duplicate (DSACK).
		end := seg.seq + uint64(len(seg.payload))
		if end > c.rcvNxt {
			c.deliver(seg.payload[c.rcvNxt-seg.seq:])
			c.drainOOO()
		} else {
			dupData = true
		}
	}
	c.sendAck(dupData)
}

// drainOOO delivers buffered out-of-order data that rcvNxt has reached
// or passed, including entries that overlap rcvNxt (misaligned
// retransmissions), and purges entries made obsolete by the advance.
func (c *Conn) drainOOO() {
	defer c.oooTrim()
	for {
		progressed := false
		for seq, p := range c.ooo {
			end := seq + uint64(len(p))
			switch {
			case end <= c.rcvNxt:
				delete(c.ooo, seq) // fully stale
				progressed = true
			case seq <= c.rcvNxt:
				c.deliver(p[c.rcvNxt-seq:])
				delete(c.ooo, seq)
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

func (c *Conn) deliver(p []byte) {
	c.rcvNxt += uint64(len(p))
	c.BytesDeliverd += uint64(len(p))
	if c.OnRecv != nil {
		c.OnRecv(p)
	}
}
