package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"tcpls"
	"tcpls/internal/server"
)

const (
	rpcMinSize    = 64
	rpcMaxSize    = 1024 // always one record
	rpcClients    = 2
	rpcWarmEchoes = 1000 // per client, the fixed-work warm-up
	payloadPool   = 64 << 10
)

// rpc is rpc_small: two sessions to server.Echo(), one closed-loop client
// on each, seeded request sizes, every reply compared with its request.
type rpc struct {
	p     params
	env   *serverEnv
	conns []*rpcConn
	l     runLogs
}

type rpcConn struct {
	sess *tcpls.Session
	st   *tcpls.Stream
	gen  splitmix64
	pool []byte // seeded bytes the requests are cut from
	req  []byte
	resp []byte
	seq  uint64
	sent uint64
}

func startRPC(p params, v variant) (instance, error) {
	epoch := time.Now()
	r := &rpc{p: p, l: runLogs{epoch: epoch}}
	env, err := startServer(v, server.Echo())
	if err != nil {
		return nil, err
	}
	r.env = env
	for i := 0; i < rpcClients; i++ {
		c := &client{ops: make([]opSample, 0, 1<<17)}
		if p.trace {
			c.tr = newTracer(epoch)
		}
		r.l.clients = append(r.l.clients, c)
		rc := &rpcConn{
			gen:  splitmix64(p.seed + uint64(i)*0x51ed27),
			pool: make([]byte, payloadPool),
			req:  make([]byte, rpcMaxSize),
			resp: make([]byte, rpcMaxSize),
		}
		rc.gen.fill(rc.pool)
		r.conns = append(r.conns, rc)
		c.tr.set(p.trace)
		sp := c.tr.begin("dial", -1, 0)
		rc.sess, err = tcpls.Dial("tcp", env.addr, env.clientConfig(v))
		c.tr.end(sp)
		if err == nil {
			sp = c.tr.begin("open_stream", -1, 0)
			rc.st, err = rc.sess.OpenStream()
			c.tr.end(sp)
		}
		c.tr.set(false)
		if err != nil {
			r.teardown()
			return nil, fmt.Errorf("rpc client %d: %w", i, err)
		}
	}
	return r, nil
}

func (r *rpc) warm() error {
	r.run(&phase{maxOps: rpcWarmEchoes})
	for _, c := range r.l.clients {
		for _, op := range c.ops {
			if op.failed {
				return fmt.Errorf("rpc warm-up: an echo failed")
			}
		}
	}
	return nil
}

func (r *rpc) run(ph *phase) {
	errs := make([]error, len(r.l.clients))
	defer func() {
		for _, err := range errs {
			if err != nil && r.l.firstErr == nil {
				r.l.firstErr = err
			}
		}
	}()
	each(r.l.clients, func(i int, c *client) {
		rc := r.conns[i]
		for n := 0; ; n++ {
			t0 := time.Now()
			if ph.done(t0, n) {
				break
			}
			c.tr.set(ph.traced(t0))
			op := c.tr.begin("op", -1, rc.seq)
			// The request: a seeded size, seeded bytes, its sequence
			// number in front.
			v := rc.gen.next()
			size := rpcMinSize + int(v%(rpcMaxSize-rpcMinSize+1))
			off := int((v >> 32) % (payloadPool - rpcMaxSize))
			req := rc.req[:size]
			copy(req, rc.pool[off:])
			binary.BigEndian.PutUint64(req, rc.seq)
			sp := c.tr.begin("write", op, rc.seq)
			_, err := rc.st.Write(req)
			c.tr.end(sp)
			resp := rc.resp[:size]
			if err == nil {
				sp = c.tr.begin("read", op, rc.seq)
				_, err = io.ReadFull(rc.st, resp)
				c.tr.end(sp)
			}
			if i == 0 && r.p.corrupt && ph.measured() {
				r.p.corrupt = false
				resp[size-1] ^= 0xff
			}
			sp = c.tr.begin("verify", op, rc.seq)
			ok := err == nil && bytes.Equal(resp, req)
			c.tr.end(sp)
			c.tr.end(op)
			c.record(r.l.epoch, t0, time.Now(), size, 0, !ok)
			if err != nil {
				errs[i] = fmt.Errorf("client %d, echo %d: %w", i, rc.seq, err)
				return
			}
			rc.seq++
			rc.sent += uint64(size)
		}
		c.tr.set(false)
	})
}

func (r *rpc) finish() error {
	for _, rc := range r.conns {
		s := rc.sess.Stats()
		r.l.stats.addSender(s)
		r.l.stats.addReceiver(s)
		r.l.stats.payload += rc.sent
	}
	r.l.registryPeak = r.env.srv.Registry().Len()
	r.l.rejects = r.env.rejects()
	return r.teardown()
}

func (r *rpc) teardown() error {
	for i, rc := range r.conns {
		if rc.sess == nil {
			continue
		}
		tr := r.l.clients[i].tr
		tr.set(r.p.trace)
		sp := tr.begin("close", -1, rc.seq)
		rc.sess.Close()
		tr.end(sp)
		tr.set(false)
	}
	return r.env.stop()
}

func (r *rpc) logs() *runLogs { return &r.l }

func (r *rpc) settle() {}

func (r *rpc) delivered() []delivery { return nil }
