// Package mptcp models Multipath TCP (RFC 8684) over the simulated TCP
// stack: the baseline TCPLS is compared against in the paper's Figs. 8,
// 9 and 11. The model reproduces the mechanisms those comparisons hinge
// on:
//
//   - subflows are independent simtcp connections with their own
//     congestion state;
//   - a data sequence space (DSS) maps the application byte stream onto
//     subflows; the receiver reassembles with a reordering buffer;
//   - the default scheduler prefers the lowest-RTT subflow with window
//     space (Linux's default);
//   - a backup path manager keeps standby subflows idle until the
//     primary fails;
//   - failure handling mirrors the kernel's weaknesses the paper
//     documents: chunks assigned to a subflow stay with it until that
//     subflow's exponentially backed-off RTO fires, so repeated outages
//     (Fig. 9) stall progress for seconds, and a fresh subflow after an
//     interface comes up pays the kernel's address-configuration delay
//     (Fig. 11, [74]).
package mptcp

import (
	"sort"
	"time"

	"tcpls/internal/reorder"
	"tcpls/internal/sim"
	"tcpls/internal/simtcp"
	"tcpls/internal/wire"
)

// chunkSize is the DSS mapping granularity: one scheduling unit.
const chunkSize = 1460

// dssHeader carries the data sequence number in front of each chunk on
// the subflow byte stream.
const dssHeader = 8

// Conn is one endpoint of a multipath connection.
type Conn struct {
	s    *sim.Sim
	peer *Conn

	subflows []*subflow

	// Sender.
	nextDSS   uint64
	sendQ     [][]byte // chunks awaiting first assignment
	appQueued int

	// Receiver.
	buf      *reorder.Buffer
	OnRecv   func(p []byte)
	received uint64

	// BackupMode keeps subflows beyond the first idle until the active
	// one fails (the paper's Fig. 8 configuration).
	BackupMode bool
	// Paths are the paths a fault schedule names by number (fault.Play,
	// with this end as its Net).
	Paths []*sim.Path
}

// subflow wraps one simtcp connection with DSS parsing state and its
// unacked chunk list for reinjection.
type subflow struct {
	conn   *simtcp.Conn
	path   *sim.Path
	parent *Conn
	// Receiver-side DSS parsing.
	rbuf []byte
	// Sender-side: chunks written to this subflow and not yet known
	// delivered (reinjected on subflow failure).
	inflight []dssChunk
	failed   bool
	backup   bool
}

type dssChunk struct {
	dss  uint64
	data []byte
}

// Pair creates connected multipath endpoints with no subflows; add paths
// with AddSubflow.
func Pair(s *sim.Sim) (client, server *Conn) {
	client = &Conn{s: s, buf: reorder.New(0)}
	server = &Conn{s: s, buf: reorder.New(0)}
	client.peer = server
	server.peer = client
	return client, server
}

// AddSubflow establishes a new subflow over path. backup subflows carry
// no data until every non-backup subflow has failed. extraDelay models
// the kernel's interface-configuration latency before MPTCP learns the
// new address (Fig. 11's slow ramp, [74]).
func (c *Conn) AddSubflow(path *sim.Path, opts simtcp.Options, backup bool, extraDelay time.Duration) {
	c.s.After(extraDelay, func() {
		cSub, sSub := c.connect(path, opts, backup)
		c.subflows = append(c.subflows, cSub)
		c.peer.subflows = append(c.peer.subflows, sSub)
		c.pump()
		c.peer.pump()
	})
}

// connect opens a subflow over path: c's end and its peer's.
func (c *Conn) connect(path *sim.Path, opts simtcp.Options, backup bool) (cSub, sSub *subflow) {
	cl, sv := simtcp.Connect(c.s, path, opts, opts)
	cSub = &subflow{conn: cl, path: path, parent: c, backup: backup}
	sSub = &subflow{conn: sv, path: path, parent: c.peer, backup: backup}
	cl.OnRecv = cSub.onBytes // bytes the client endpoint receives
	sv.OnRecv = sSub.onBytes // bytes the server endpoint receives
	cl.OnReset = func() { c.onSubflowFail(cSub) }
	sv.OnReset = func() { c.peer.onSubflowFail(sSub) }
	// The kernel declares a subflow dead after repeated backed-off RTOs;
	// chunks mapped to it stay stuck until then (Fig. 9).
	cl.OnRTO = func(n int) {
		if n >= 3 {
			c.onSubflowFail(cSub)
		}
	}
	sv.OnRTO = func(n int) {
		if n >= 3 {
			c.peer.onSubflowFail(sSub)
		}
	}
	cl.OnAcked = c.pump
	sv.OnAcked = c.peer.pump
	cl.OnEstablished = func() { c.pump() }
	sv.OnEstablished = func() { c.peer.pump() }
	return cSub, sSub
}

// Received returns total in-order bytes delivered to the application.
func (c *Conn) Received() uint64 { return c.received }

// Write queues application bytes; they are chunked, stamped with data
// sequence numbers at scheduling time, and spread over subflows.
func (c *Conn) Write(p []byte) {
	for len(p) > 0 {
		n := len(p)
		if n > chunkSize {
			n = chunkSize
		}
		c.sendQ = append(c.sendQ, append([]byte(nil), p[:n]...))
		p = p[n:]
	}
	c.pump()
}

// usable lists subflows eligible to carry new data, honouring backup
// semantics, sorted by smoothed RTT (the default Linux scheduler).
func (c *Conn) usable() []*subflow {
	var active, backups []*subflow
	anyPrimaryAlive := false
	for _, sf := range c.subflows {
		if sf.failed || !sf.conn.Established() {
			continue
		}
		if sf.backup {
			backups = append(backups, sf)
		} else {
			active = append(active, sf)
			anyPrimaryAlive = true
		}
	}
	out := active
	if c.BackupMode && !anyPrimaryAlive {
		out = backups
	} else if !c.BackupMode {
		out = append(out, backups...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].conn.SRTT() < out[j].conn.SRTT()
	})
	return out
}

// pump schedules queued chunks onto subflows with congestion window
// space. The kernel scheduler does not reassign a chunk once written to
// a subflow's send buffer — the behaviour behind Fig. 9's stalls.
func (c *Conn) pump() {
	subs := c.usable()
	if len(subs) == 0 {
		return
	}
	for len(c.sendQ) > 0 {
		var target *subflow
		for _, sf := range subs {
			if sf.conn.InFlight()+sf.conn.Buffered() < sf.conn.Cwnd() {
				target = sf
				break
			}
		}
		if target == nil {
			return // all windows full; OnAcked pumps again
		}
		chunk := c.sendQ[0]
		c.sendQ = c.sendQ[1:]
		dss := c.nextDSS
		c.nextDSS++
		target.writeChunk(dssChunk{dss: dss, data: chunk})
	}
}

// writeChunk frames one chunk with its DSS header onto the subflow.
func (sf *subflow) writeChunk(ch dssChunk) {
	sf.inflight = append(sf.inflight, ch)
	hdr := make([]byte, dssHeader)
	// High 40 bits: dss; low 24: length (chunks are small).
	wire.PutUint64(hdr, ch.dss<<24|uint64(len(ch.data)))
	sf.conn.Write(append(hdr, ch.data...))
}

// onBytes parses DSS-framed chunks from the subflow byte stream and
// offers them to the reordering buffer.
func (sf *subflow) onBytes(p []byte) {
	sf.rbuf = append(sf.rbuf, p...)
	for {
		if len(sf.rbuf) < dssHeader {
			return
		}
		v := wire.Uint64(sf.rbuf)
		dss := v >> 24
		n := int(v & 0xffffff)
		if len(sf.rbuf) < dssHeader+n {
			return
		}
		data := append([]byte(nil), sf.rbuf[dssHeader:dssHeader+n]...)
		sf.rbuf = sf.rbuf[dssHeader+n:]
		sf.parent.deliver(dss, data)
		// Inform the peer's sender bookkeeping: chunk dss delivered.
		sf.parent.peer.chunkDelivered(dss)
	}
}

func (c *Conn) deliver(dss uint64, data []byte) {
	for _, it := range c.buf.Offer(dss, data) {
		c.received += uint64(len(it.Data))
		if c.OnRecv != nil {
			c.OnRecv(it.Data)
		}
	}
}

// chunkDelivered trims subflow reinjection lists.
func (c *Conn) chunkDelivered(dss uint64) {
	for _, sf := range c.subflows {
		for i, ch := range sf.inflight {
			if ch.dss == dss {
				sf.inflight = append(sf.inflight[:i], sf.inflight[i+1:]...)
				break
			}
		}
	}
}

// onSubflowFail reinjects the failed subflow's undelivered chunks at the
// head of the send queue and re-pumps over the survivors.
func (c *Conn) onSubflowFail(sf *subflow) {
	if sf.failed {
		return
	}
	sf.failed = true
	if len(sf.inflight) > 0 {
		re := make([][]byte, 0, len(sf.inflight))
		for _, ch := range sf.inflight {
			re = append(re, ch.data)
		}
		// Reinjected chunks keep their original DSS ordering by being
		// rescheduled first (they have the lowest outstanding numbers).
		var dss []uint64
		for _, ch := range sf.inflight {
			dss = append(dss, ch.dss)
		}
		sf.inflight = nil
		for i := len(re) - 1; i >= 0; i-- {
			c.reinject(dss[i], re[i])
		}
	}
	c.pump()
}

// reinject reschedules a chunk with its existing DSS number.
func (c *Conn) reinject(dss uint64, data []byte) {
	subs := c.usable()
	if len(subs) == 0 {
		// No live subflow: park it until one appears.
		c.s.After(100*time.Millisecond, func() { c.reinject(dss, data) })
		return
	}
	subs[0].writeChunk(dssChunk{dss: dss, data: data})
}

// Sessions, PathsOf and Reset make an endpoint the fault.Net of one
// multipath connection over its Paths.
func (c *Conn) Sessions() int { return 1 }

// PathsOf returns the endpoint's Paths.
func (c *Conn) PathsOf(int) []*sim.Path { return c.Paths }

// Reset resets this end of each subflow over Paths[p]: a kernel route
// withdrawal.
func (c *Conn) Reset(_, p int) {
	for _, sf := range c.subflows {
		if sf.path == c.Paths[p] {
			sf.conn.Reset()
		}
	}
}

// SubflowFailed reports whether subflow i is dead at either endpoint: a
// blackhole is detected by the data sender's RTOs, so the receiving side
// must consult its peer too.
func (c *Conn) SubflowFailed(i int) bool {
	if i >= len(c.subflows) {
		return false
	}
	a := c.subflows[i]
	if a.failed || a.conn.Failed() {
		return true
	}
	if i < len(c.peer.subflows) {
		b := c.peer.subflows[i]
		return b.failed || b.conn.Failed()
	}
	return false
}

// ReviveSubflow replaces a failed subflow with a fresh connection over
// path, modeling the kernel path manager's periodic re-establishment of
// subflows on addresses that came back.
func (c *Conn) ReviveSubflow(i int, path *sim.Path, opts simtcp.Options) {
	if i >= len(c.subflows) || !c.SubflowFailed(i) {
		return
	}
	cSub, sSub := c.connect(path, opts, c.subflows[i].backup)
	c.subflows[i] = cSub
	c.peer.subflows[i] = sSub
}
