package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tcpls"
)

const (
	blockSize      = 1 << 20
	blockHeaderLen = 16 // index, then a tag mixed from seed and index
	sampleOneIn    = 64 // blocks compared byte for byte
	bulkWarmBlocks = 32 // the fixed-work warm-up
)

// sampled reports whether block idx is one the sink compares in full:
// a seeded one in sampleOneIn, or every block when all is set.
func sampled(seed, idx uint64, all bool) bool {
	return all || mix64(seed^mix64(idx))%sampleOneIn == 0
}

func putBlockHeader(b []byte, seed, idx uint64) {
	binary.BigEndian.PutUint64(b, idx)
	binary.BigEndian.PutUint64(b[8:], mix64(seed+idx))
}

// sink is the server side of the bulk workloads: an internal/server
// handler that reads the stream (or the coupled group), checks what it
// reads and logs each block as it completes.
type sink struct {
	coupled bool
	// compareAll makes every block a sampled one: the smoke test's
	// damaged block must not depend on where the sample falls.
	compareAll bool
	seed       uint64
	base       []byte
	epoch      time.Time
	tr         *tracer
	ph         atomic.Pointer[phase]

	sess      atomic.Pointer[tcpls.Session]
	delivered atomic.Int64 // payload bytes of completed blocks
	damaged   atomic.Int64 // blocks that failed a check

	// Written by the handler goroutine only; read after delivered has
	// been seen to reach the writer's count.
	log []delivery
	idx uint64
	off int
	hdr [blockHeaderLen]byte
	bad bool
}

func (k *sink) handle(sess *tcpls.Session) {
	k.sess.Store(sess)
	read := sess.ReadCoupled
	if k.coupled {
		for i := 0; i < 2; i++ {
			if _, err := sess.AcceptStream(context.Background()); err != nil {
				return
			}
		}
	} else {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		read = st.Read
	}
	buf := make([]byte, 256<<10)
	for {
		var now time.Time
		if ph := k.ph.Load(); ph != nil && ph.trace {
			now = time.Now()
			k.tr.set(ph.traced(now))
		}
		sp := k.tr.begin("read", -1, k.idx)
		n, err := read(buf)
		k.tr.end(sp)
		if n > 0 {
			k.consume(buf[:n])
		}
		if err != nil {
			return
		}
	}
}

// consume walks a chunk of the stream block by block. Every block's
// header is checked; sampled blocks are compared against the seeded
// payload in full.
func (k *sink) consume(p []byte) {
	for len(p) > 0 {
		n := blockSize - k.off
		if n > len(p) {
			n = len(p)
		}
		piece := p[:n]
		if k.off < blockHeaderLen {
			h := copy(k.hdr[k.off:], piece)
			if k.off+h == blockHeaderLen {
				var want [blockHeaderLen]byte
				putBlockHeader(want[:], k.seed, k.idx)
				k.bad = k.bad || k.hdr != want
			}
		}
		if sampled(k.seed, k.idx, k.compareAll) {
			sp := k.tr.begin("verify", -1, k.idx)
			from := k.off
			if from < blockHeaderLen {
				skip := blockHeaderLen - from
				if skip > len(piece) {
					skip = len(piece)
				}
				piece, from = piece[skip:], from+skip
			}
			k.bad = k.bad || !bytes.Equal(piece, k.base[from:from+len(piece)])
			k.tr.end(sp)
		}
		k.off += n
		p = p[n:]
		if k.off == blockSize {
			if k.bad {
				k.damaged.Add(1)
			}
			k.log = append(k.log, delivery{t: int64(time.Since(k.epoch)), bytes: blockSize})
			k.idx, k.off, k.bad = k.idx+1, 0, false
			k.delivered.Add(blockSize)
		}
	}
}

// bulk is bulk_1s and bulk_failover_2p: one writer sending seeded 1 MiB
// blocks to the sink.
type bulk struct {
	p       params
	env     *serverEnv
	sess    *tcpls.Session
	write   func([]byte) (int, error)
	sink    *sink
	block   []byte
	next    uint64
	written int64
	cl      *client
	l       runLogs
}

func startBulk(p params, v variant) (instance, error) {
	epoch := time.Now()
	gen := splitmix64(p.seed)
	base := make([]byte, blockSize)
	gen.fill(base)
	b := &bulk{
		p:     p,
		block: append([]byte(nil), base...),
		cl:    &client{ops: make([]opSample, 0, 1<<16)},
		sink:  &sink{coupled: v.failover2p, compareAll: p.corrupt, seed: p.seed, base: base, epoch: epoch, log: make([]delivery, 0, 1<<16)},
	}
	b.l = runLogs{epoch: epoch, clients: []*client{b.cl}}
	if p.trace {
		b.cl.tr = newTracer(epoch)
		b.sink.tr = newTracer(epoch)
		b.l.sinkTracer = b.sink.tr
	}
	env, err := startServer(v, b.sink.handle)
	if err != nil {
		return nil, err
	}
	b.env = env
	tr := b.cl.tr
	tr.set(p.trace)
	defer tr.set(false)
	sp := tr.begin("dial", -1, 0)
	b.sess, err = tcpls.Dial("tcp", env.addr, env.clientConfig(v))
	tr.end(sp)
	if err != nil {
		env.stop()
		return nil, fmt.Errorf("dial: %w", err)
	}
	// A plain TLS session has no session ID and no join cookies; Dial
	// also falls back to one silently when the server offers no TCPLS.
	if plain := b.sess.ID() == (tcpls.SessID{}) && b.sess.Cookies() == 0; plain != v.plainTLS {
		b.sess.Close()
		env.stop()
		return nil, fmt.Errorf("session negotiated plain TLS = %v, the variant asks for %v", plain, v.plainTLS)
	}
	sp = tr.begin("open_stream", -1, 0)
	err = b.openStreams(v)
	tr.end(sp)
	if err != nil {
		b.sess.Close()
		env.stop()
		return nil, err
	}
	return b, nil
}

func (b *bulk) openStreams(v variant) error {
	st, err := b.sess.OpenStream()
	if err != nil {
		return fmt.Errorf("open stream: %w", err)
	}
	b.write = st.Write
	if !v.failover2p {
		return nil
	}
	conn2, err := b.sess.JoinPath("tcp", b.env.addr)
	if err != nil {
		return fmt.Errorf("join path: %w", err)
	}
	st2, err := b.sess.OpenStreamOn(conn2)
	if err != nil {
		return fmt.Errorf("open stream on path 2: %w", err)
	}
	if err := b.sess.Couple(st, st2); err != nil {
		return fmt.Errorf("couple: %w", err)
	}
	b.write = b.sess.WriteCoupled
	return nil
}

func (b *bulk) warm() error {
	b.run(&phase{maxOps: bulkWarmBlocks})
	if !b.drained() {
		return errors.New("bulk warm-up: sink did not receive every block")
	}
	return nil
}

func (b *bulk) run(ph *phase) {
	b.sink.ph.Store(ph)
	c := b.cl
	for n := 0; ; n++ {
		t0 := time.Now()
		if ph.done(t0, n) {
			break
		}
		c.tr.set(ph.traced(t0))
		op := c.tr.begin("op", -1, b.next)
		putBlockHeader(b.block, b.p.seed, b.next)
		damage := b.p.corrupt && ph.measured()
		if damage {
			b.block[blockSize/2] ^= 0xff
		}
		sp := c.tr.begin("write", op, b.next)
		_, err := b.write(b.block)
		c.tr.end(sp)
		c.tr.end(op)
		if damage {
			b.block[blockSize/2] ^= 0xff
			b.p.corrupt = false
		}
		c.record(b.l.epoch, t0, time.Now(), 0, 0, err != nil)
		if err != nil {
			b.l.firstErr = fmt.Errorf("block %d: %w", b.next, err)
			return
		}
		b.next++
		b.written += blockSize
	}
	c.tr.set(false)
}

// drained waits until the sink has read every byte written.
func (b *bulk) drained() bool {
	return waitFor(10*time.Second, func() bool { return b.sink.delivered.Load() == b.written })
}

func (b *bulk) finish() error {
	ss := b.sink.sess.Load()
	if !b.drained() && b.l.firstErr == nil {
		// Final byte counts differ: say what both engines saw.
		b.l.failedOutsideOps++
		b.l.firstErr = fmt.Errorf("sink has %d of %d bytes written after 10 s; client %+v; server %+v",
			b.sink.delivered.Load(), b.written, b.sess.Stats(), ss.Stats())
	}
	b.l.failedOutsideOps += int(b.sink.damaged.Load())
	b.l.stats.addSender(b.sess.Stats())
	b.l.stats.payload = uint64(b.written)
	if ss != nil {
		b.l.stats.addReceiver(ss.Stats())
	}
	b.l.registryPeak = b.env.srv.Registry().Len()
	b.l.rejects = b.env.rejects()
	b.cl.tr.set(b.p.trace)
	sp := b.cl.tr.begin("close", -1, b.next)
	b.sess.Close()
	b.cl.tr.end(sp)
	b.cl.tr.set(false)
	if ss != nil {
		// With failover on, the client's close can reach the server as
		// a reset that overtakes its goodbye (acks were still in
		// flight), and the server session then waits out its reconnect
		// deadline. The transfer is complete; end it here.
		ss.Close()
	}
	return b.env.stop()
}

func (b *bulk) logs() *runLogs { return &b.l }

func (b *bulk) settle() { b.drained() }

func (b *bulk) delivered() []delivery { return b.sink.log }
