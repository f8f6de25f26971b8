// Package netem provides real-time link emulation over net.Conn — a
// lightweight tc-netem stand-in used by the runnable examples to shape
// loopback TCP into "a 25 Mbps path with 20 ms RTT" so multipath
// behaviour is observable on one machine.
//
// The shaping wraps a TCP relay: dial the relay instead of the server
// and every byte pays the configured rate and delay in each direction.
//
// Beyond shaping, the relay is the wall-clock executor of the fault
// vocabulary (internal/fault) over real sockets: resets (abortive close
// with SO_LINGER 0), blackholes, mid-stream stalls, kill-after-N-bytes,
// half-close, and the middlebox classes that rewrite the byte stream —
// resegmenting, corrupting, and a firewall that rejects the TCPLS hello.
package netem

import (
	"cmp"
	"net"
	"slices"
	"sync"
	"time"

	"tcpls/internal/fault"
	"tcpls/internal/wire"
)

// Profile describes one direction's link behaviour.
type Profile struct {
	// RateBps limits throughput in bits per second (0 = unlimited).
	RateBps int64
	// Delay adds one-way latency.
	Delay time.Duration
	// QueueLen bounds the bottleneck queue in read chunks (up to 16 KiB
	// each); 0 means the default of 8. A shallow queue propagates TCP
	// backpressure to the sender sooner, like a shallow-buffered
	// bottleneck router.
	QueueLen int
}

// Relay is a shaping TCP forwarder with fault injection.
type Relay struct {
	ln     net.Listener
	target string
	c2s    Profile
	s2c    Profile
	done   chan struct{}

	mu sync.Mutex
	// conns maps each forwarded socket to whether it faces the client,
	// so directional faults (half-close toward the client) can pick
	// their victims.
	conns   map[net.Conn]bool
	dropped bool          // blackholed: new connections are refused
	stallCh chan struct{} // non-nil while stalled; closed at its end
	// killBudget counts forwarded payload bytes still allowed before the
	// relay RSTs everything, while killArmed.
	killBudget int64
	killArmed  bool
	mangles    []fault.Fault // the stream rewrites in force; replaced, never modified
}

// NewRelay starts a shaping relay toward target.
func NewRelay(target string, c2s, s2c Profile) (*Relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &Relay{ln: ln, target: target, c2s: c2s, s2c: s2c, done: make(chan struct{}), conns: map[net.Conn]bool{}}
	go r.accept()
	return r, nil
}

// Addr returns the relay's dialable address.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Close stops the relay and closes all forwarded connections.
func (r *Relay) Close() error {
	err := r.ln.Close()
	select {
	case <-r.done:
	default:
		close(r.done)
	}
	r.mu.Lock()
	r.unstallLocked() // release pumps blocked on a stall gate
	r.closeAll(false)
	r.mu.Unlock()
	return err
}

// Run injects faults into the relay, At counted from now: faults due at
// once are applied before Run returns, the rest on a goroutine, and a
// Blackhole, Stall or stream rewrite with a Dur ends on its own. The returned channel closes
// once all of it has run, or the relay closed. Run refuses, with an
// *fault.Unsupported error and before anything is applied, faults
// holding a kind a relay cannot express: DataStall, Degrade, RSTStorm,
// RackOutage and Restart, which need a session's view.
func (r *Relay) Run(faults ...fault.Fault) (<-chan struct{}, error) {
	sched := fault.Schedule(faults)
	err := sched.Check("relay", fault.RST, fault.Blackhole, fault.Restore, fault.Stall, fault.Unstall,
		fault.HalfClose, fault.KillAfter, fault.Resegment, fault.Corrupt, fault.RejectHello)
	if err != nil {
		return nil, err
	}
	// Each fault with a Dur is two steps: it, and its end.
	type step struct {
		at  time.Duration
		f   fault.Fault
		end bool
	}
	var steps []step
	for _, f := range sched {
		steps = append(steps, step{f.At, f, false})
		if lasting := []fault.Kind{fault.Blackhole, fault.Stall, fault.Resegment, fault.Corrupt, fault.RejectHello}; f.Dur > 0 && slices.Contains(lasting, f.Kind) {
			steps = append(steps, step{f.At + f.Dur, f, true})
		}
	}
	slices.SortStableFunc(steps, func(a, b step) int { return cmp.Compare(a.at, b.at) })
	for len(steps) > 0 && steps[0].at <= 0 {
		r.apply(steps[0].f, steps[0].end)
		steps = steps[1:]
	}
	done := make(chan struct{})
	if len(steps) == 0 {
		close(done)
		return done, nil
	}
	go func() {
		defer close(done)
		start := time.Now()
		for _, st := range steps {
			select {
			case <-time.After(st.at - time.Since(start)):
			case <-r.done:
				return
			}
			r.apply(st.f, st.end)
		}
	}()
	return done, nil
}

// apply applies f, or its end.
func (r *Relay) apply(f fault.Fault, end bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case f.Kind == fault.Blackhole && !end:
		r.dropped = true
		r.closeAll(false)
	case f.Kind == fault.Blackhole, f.Kind == fault.Restore:
		r.dropped = false
	case f.Kind == fault.RST:
		r.closeAll(true)
	case f.Kind == fault.Stall && !end:
		if r.stallCh == nil {
			r.stallCh = make(chan struct{})
		}
	case f.Kind == fault.Stall, f.Kind == fault.Unstall:
		r.unstallLocked()
	case f.Kind == fault.HalfClose:
		for nc, clientFacing := range r.conns {
			if tc, ok := nc.(*net.TCPConn); ok && clientFacing {
				tc.CloseWrite()
			}
		}
	case f.Kind == fault.KillAfter:
		r.killBudget, r.killArmed = f.Bytes, true
	case end:
		r.mangles = slices.DeleteFunc(slices.Clone(r.mangles), func(m fault.Fault) bool { return m == f })
	default:
		r.mangles = append(slices.Clip(r.mangles), f)
	}
}

// closeAll closes every forwarded connection, abort with a TCP RST
// (SO_LINGER 0) instead of a FIN.
func (r *Relay) closeAll(abort bool) {
	for nc := range r.conns {
		if abort {
			abortConn(nc)
		} else {
			nc.Close()
		}
	}
}

func abortConn(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	nc.Close()
}

func (r *Relay) unstallLocked() {
	if r.stallCh != nil {
		close(r.stallCh)
		r.stallCh = nil
	}
}

// waitStall blocks while the relay is stalled. It returns false if the
// relay shut down while waiting.
func (r *Relay) waitStall() bool {
	for {
		r.mu.Lock()
		ch := r.stallCh
		r.mu.Unlock()
		if ch == nil {
			return true
		}
		select {
		case <-ch:
		case <-r.done:
			return false
		}
	}
}

// consumeKillBudget accounts n forwarded bytes against an armed byte
// bomb. It returns how many of those bytes may still be forwarded and
// whether the bomb just went off, and the stream rewrites in force. The
// caller must forward the allowed prefix and then pull the trigger (RST)
// itself — firing here would race the RST ahead of the very bytes the
// budget permits.
func (r *Relay) consumeKillBudget(n int) (allowed int, killed bool, mangles []fault.Fault) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.killArmed {
		return n, false, r.mangles
	}
	allowed = min(n, int(r.killBudget))
	r.killBudget -= int64(allowed)
	killed = r.killBudget <= 0
	if killed {
		r.killArmed = false
	}
	return allowed, killed, r.mangles
}

func (r *Relay) accept() {
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		dropped := r.dropped
		r.mu.Unlock()
		if dropped {
			c.Close()
			continue
		}
		go r.handle(c)
	}
}

func (r *Relay) handle(client net.Conn) {
	server, err := net.Dial("tcp", r.target)
	if err != nil {
		client.Close()
		return
	}
	r.mu.Lock()
	r.conns[client], r.conns[server] = true, false
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.conns, client)
		delete(r.conns, server)
		r.mu.Unlock()
		client.Close()
		server.Close()
	}()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r.shapePump(client, server, r.c2s, fault.Up) }()
	go func() { defer wg.Done(); r.shapePump(server, client, r.s2c, fault.Down) }()
	wg.Wait()
}

// rewriter is one direction of one connection under the stream
// rewrites: what each has seen of it so far.
type rewriter struct {
	dir      fault.Dir
	chunks   int   // read chunks
	corrupt  int64 // bytes under Corrupt
	segments int   // segments cut under Resegment, the cycle's position
}

// segmentCycle is Resegment's sizes when it gives none.
var segmentCycle = []int{1, 7, 64, 512, 4096}

// rewrite applies the rewrites in force to the next read chunk, which it
// may modify: the chunks to forward instead, and whether to abort the
// connection once they are.
func (w *rewriter) rewrite(chunk []byte, mangles []fault.Fault) (out [][]byte, abort bool) {
	w.chunks++
	out = [][]byte{chunk}
	for _, m := range mangles {
		if m.Dir != "" && m.Dir != w.dir {
			continue
		}
		switch m.Kind {
		case fault.RejectHello:
			if w.dir == fault.Up && w.chunks == 1 && tcplsHello(chunk) {
				return nil, true
			}
		case fault.Corrupt:
			for i := range chunk {
				if w.corrupt++; w.corrupt%max(m.Bytes, 1) == 0 {
					chunk[i] ^= 0x01
				}
			}
		case fault.Resegment:
			out = out[:0]
			for rest := chunk; len(rest) > 0; w.segments++ {
				n := int(m.Bytes)
				if n <= 0 {
					n = segmentCycle[w.segments%len(segmentCycle)]
				}
				n = min(n, len(rest))
				out, rest = append(out, rest[:n]), rest[n:]
			}
		}
	}
	return out, false
}

// tcplsHello reports whether a first flight is a TLS handshake record
// carrying a ClientHello that advertises the TCPLS Hello extension
// (codepoint 0xfa00 followed by a plausible length): the shallow pattern
// match real DPI boxes perform.
func tcplsHello(b []byte) bool {
	if len(b) < 6 || b[0] != 22 || b[5] != 1 {
		return false
	}
	for i := 5; i+4 <= len(b); i++ {
		if b[i] == 0xfa && b[i+1] == 0x00 && i+4+int(wire.Uint16(b[i+2:])) <= len(b) {
			return true
		}
	}
	return false
}

// shapePump forwards src→dst, in direction dir, applying the stream
// rewrites, rate, delay, and injected faults.
func (r *Relay) shapePump(src, dst net.Conn, p Profile, dir fault.Dir) {
	w := rewriter{dir: dir}
	type chunk struct {
		data  []byte
		dueAt time.Time
	}
	// A small queue keeps the shaper from absorbing megabytes of the
	// sender's data: when the shaped rate falls behind, reads stall and
	// TCP backpressure propagates to the sender (as a real bottleneck
	// queue would).
	qlen := p.QueueLen
	if qlen <= 0 {
		qlen = 8
	}
	ch := make(chan chunk, qlen)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range ch {
			if d := time.Until(c.dueAt); d > 0 {
				time.Sleep(d)
			}
			if !r.waitStall() {
				return
			}
			if _, err := dst.Write(c.data); err != nil {
				return
			}
		}
	}()

	buf := make([]byte, 16<<10)
	// sendAt models serialization: the time the last byte finishes
	// transmitting at RateBps.
	sendAt := time.Now()
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !r.waitStall() {
				close(ch)
				return
			}
			allowed, killed, mangles := r.consumeKillBudget(n)
			chunks := [][]byte{append([]byte(nil), buf[:allowed]...)}
			abort := false
			if allowed > 0 {
				chunks, abort = w.rewrite(chunks[0], mangles)
			}
			for _, data := range chunks {
				if len(data) == 0 {
					continue
				}
				now := time.Now()
				if sendAt.Before(now) {
					sendAt = now
				}
				if p.RateBps > 0 {
					sendAt = sendAt.Add(time.Duration(int64(len(data)) * 8 * int64(time.Second) / p.RateBps))
				}
				select {
				case ch <- chunk{data: data, dueAt: sendAt.Add(p.Delay)}:
				case <-done:
					close(ch)
					return
				}
			}
			if killed || abort {
				// Drain the shaper so the allowed prefix reaches dst,
				// then abort: everything for the byte bomb, this
				// connection for a rewrite.
				close(ch)
				<-done
				if killed {
					r.apply(fault.Fault{Kind: fault.RST}, false)
				} else {
					abortConn(src)
					abortConn(dst)
				}
				return
			}
		}
		if err != nil {
			close(ch)
			<-done
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}
