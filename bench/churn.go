package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"tcpls"
	"tcpls/internal/server"
)

// Handshake kinds of connect_churn, in opSample.kind.
const (
	kindFull = iota
	kindResumed
	kind0RTT
	numKinds
)

var kindNames = [numKinds]string{"full", "resumed", "0rtt"}

const (
	churnReqSize    = 1024
	churnWarmCycles = 30 // the fixed-work warm-up: ten of each kind
	ticketPoolMax   = 8
	// earlyRetryAfter is some fifty times a normal time to first byte.
	earlyRetryAfter = 100 * time.Millisecond
)

// churn is connect_churn: one client cycling Dial, 1 KiB request, echo,
// Close against server.Echo(), the handshake kind drawn from a seeded
// 1:1:1 order.
//
// Every session yields one ticket and two cycles in three spend one, so
// the client keeps the few newest and never reuses one: a 0-RTT flight
// under a reused ticket is refused by the server's strike register and
// falls back to 1-RTT, which the workload counts as a failed operation.
// The register also refuses once it holds 4096 strikes in a 30 s window
// (resume.DefaultReplayCap), about 136 accepted 0-RTT flights a second;
// the workload offers about 130, but each instance has a server of its
// own and lives a few seconds.
type churn struct {
	p       params
	v       variant
	env     *serverEnv
	gen     splitmix64
	order   [numKinds]uint8
	orderAt int
	pool    []byte
	req     []byte
	resp    []byte
	tickets []*tcpls.ClientTicket
	cycle   uint64
	peak    int
	cl      *client
	l       runLogs
}

func startChurn(p params, v variant) (instance, error) {
	epoch := time.Now()
	c := &churn{
		p: p, v: v,
		gen:     splitmix64(p.seed),
		orderAt: numKinds,
		pool:    make([]byte, payloadPool),
		req:     make([]byte, churnReqSize),
		resp:    make([]byte, churnReqSize),
		cl:      &client{ops: make([]opSample, 0, 1<<16)},
	}
	c.gen.fill(c.pool)
	c.l = runLogs{epoch: epoch, clients: []*client{c.cl}}
	if p.trace {
		c.cl.tr = newTracer(epoch)
	}
	env, err := startServer(v, server.Echo())
	if err != nil {
		return nil, err
	}
	c.env = env
	// Ticket acquisition: one full handshake, so that the first resumed
	// cycle has something to present.
	if _, failed, err := c.connect(kindFull, false); err != nil || failed {
		env.stop()
		return nil, fmt.Errorf("first handshake: failed=%v err=%v", failed, err)
	}
	return c, nil
}

// nextKind deals the kinds in seeded triples, so the mix is exactly
// 1:1:1 and the order within each triple is random.
func (c *churn) nextKind() uint8 {
	if c.orderAt == numKinds {
		c.order = [numKinds]uint8{kindFull, kindResumed, kind0RTT}
		for i := numKinds - 1; i > 0; i-- {
			j := int(c.gen.next() % uint64(i+1))
			c.order[i], c.order[j] = c.order[j], c.order[i]
		}
		c.orderAt = 0
	}
	k := c.order[c.orderAt]
	c.orderAt++
	return k
}

func (c *churn) warm() error {
	c.run(&phase{maxOps: churnWarmCycles})
	for _, op := range c.cl.ops {
		if op.failed {
			return errors.New("churn warm-up: a cycle failed")
		}
	}
	return nil
}

func (c *churn) run(ph *phase) {
	tr := c.cl.tr
	for n := 0; ; n++ {
		t0 := time.Now()
		if ph.done(t0, n) {
			break
		}
		tr.set(ph.traced(t0))
		kind := c.nextKind()
		damage := c.p.corrupt && ph.measured()
		if damage {
			c.p.corrupt = false
		}
		first, failed, err := c.connect(kind, damage)
		if first.IsZero() {
			first = time.Now()
		}
		c.cl.record(c.l.epoch, t0, first, churnReqSize, kind, failed || err != nil)
		if err != nil {
			c.l.firstErr = fmt.Errorf("cycle %d (%s): %w", c.cycle-1, kindNames[kind], err)
			return
		}
	}
	tr.set(false)
}

// errNoReply ends a 0-RTT attempt whose request got no answer.
var errNoReply = errors.New("no reply to the 0-RTT request")

// connect is one cycle. first is when the first echoed byte arrived,
// which is where the operation's latency ends; the rest of the echo, the
// ticket and Close belong to the cycle but not to its time to first byte.
//
// A 0-RTT request unanswered after earlyRetryAfter is abandoned and sent
// again over a full handshake, the fallback a client with idempotent
// early data has. tcpls.Client starts the session's read loop before it
// opens the early-data stream; a reply that arrives in between cannot be
// decrypted, is dropped, and leaves that stream's record sequence out of
// step for good (a defect of the program this workload found; see
// README.md). The cycle then still ends with a correct echo, 100 ms late,
// and earlyRetries counts it.
func (c *churn) connect(kind uint8, damage bool) (first time.Time, failed bool, err error) {
	id := c.cycle
	c.cycle++
	op := c.cl.tr.begin("op", -1, id)
	defer c.cl.tr.end(op)
	off := int(c.gen.next() % (payloadPool - churnReqSize))
	copy(c.req, c.pool[off:])
	binary.BigEndian.PutUint64(c.req, id)
	first, failed, err = c.attempt(kind, id, op, damage)
	if errors.Is(err, errNoReply) {
		c.l.earlyRetries++
		first, failed, err = c.attempt(kindFull, id, op, damage)
	}
	return first, failed, err
}

// attempt is one Dial, request, echo, Close.
func (c *churn) attempt(kind uint8, id uint64, op int, damage bool) (first time.Time, failed bool, err error) {
	tr := c.cl.tr
	cfg := c.env.clientConfig(c.v)
	if kind != kindFull {
		cfg.Ticket = c.tickets[len(c.tickets)-1]
		c.tickets = c.tickets[:len(c.tickets)-1]
	}
	if kind == kind0RTT {
		cfg.EarlyData = c.req
	}
	sp := tr.begin("dial", op, id)
	sess, err := tcpls.Dial("tcp", c.env.addr, cfg)
	tr.end(sp)
	if err != nil {
		return first, true, err
	}
	if n := c.env.srv.Registry().Len(); n > c.peak {
		c.peak = n
	}
	defer func() {
		s := sess.Stats()
		c.l.stats.addSender(s)
		c.l.stats.addReceiver(s)
		c.l.stats.payload += churnReqSize
		sp := tr.begin("close", op, id)
		sess.Close()
		tr.end(sp)
	}()

	var st *tcpls.Stream
	var n int
	if kind == kind0RTT {
		// The request went out with the handshake; its stream is waiting.
		s, ok := sess.EarlyStream()
		if !ok {
			return first, true, errors.New("0-RTT session has no early stream")
		}
		st = s
		failed = !sess.EarlyDataAccepted()
		sp = tr.begin("read", op, id)
		n, err = c.readOrGiveUp(sess, st)
	} else {
		sp = tr.begin("open_stream", op, id)
		st, err = sess.OpenStream()
		tr.end(sp)
		if err != nil {
			return first, true, err
		}
		sp = tr.begin("write", op, id)
		_, err = st.Write(c.req)
		tr.end(sp)
		if err != nil {
			return first, true, err
		}
		failed = (kind == kindResumed) != sess.Resumed()
		sp = tr.begin("read", op, id)
		n, err = st.Read(c.resp)
	}
	first = time.Now()
	if err == nil {
		_, err = io.ReadFull(st, c.resp[n:])
	}
	tr.end(sp)
	if err != nil {
		return first, true, err
	}
	if damage {
		c.resp[churnReqSize-1] ^= 0xff
	}
	sp = tr.begin("verify", op, id)
	failed = failed || !bytes.Equal(c.resp, c.req)
	tr.end(sp)

	// Keep this session's ticket for a later cycle. It usually arrived
	// before the echo; when the pool is empty the client waits for it.
	sp = tr.begin("ticket", op, id)
	defer tr.end(sp)
	var tk *tcpls.ClientTicket
	wait := time.Duration(0)
	if len(c.tickets) == 0 {
		wait = time.Second
	}
	if !waitFor(wait, func() bool { tk = sess.ResumptionTicket(); return tk != nil }) {
		if wait > 0 {
			return first, true, errors.New("no resumption ticket within 1 s")
		}
		return first, failed, nil
	}
	if len(c.tickets) == ticketPoolMax {
		c.tickets = c.tickets[1:]
	}
	c.tickets = append(c.tickets, tk)
	return first, failed, nil
}

// readOrGiveUp reads the first echoed bytes of a 0-RTT request. Stream
// has no read deadline, so the read runs on a goroutine of its own; when
// earlyRetryAfter passes first, the session is closed under it.
func (c *churn) readOrGiveUp(sess *tcpls.Session, st *tcpls.Stream) (int, error) {
	type read struct {
		n   int
		err error
	}
	done := make(chan read, 1)
	go func() {
		n, err := st.Read(c.resp)
		done <- read{n, err}
	}()
	giveUp := time.NewTimer(earlyRetryAfter)
	defer giveUp.Stop()
	select {
	case r := <-done:
		return r.n, r.err
	case <-giveUp.C:
		sess.Close()
		<-done
		return 0, errNoReply
	}
}

func (c *churn) finish() error {
	c.l.registryPeak = c.peak
	c.l.rejects = c.env.rejects()
	return c.env.stop()
}

func (c *churn) logs() *runLogs { return &c.l }

func (c *churn) settle() {}

func (c *churn) delivered() []delivery { return nil }
