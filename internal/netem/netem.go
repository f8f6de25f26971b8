// Package netem provides real-time link emulation over net.Conn — a
// lightweight tc-netem stand-in used by the runnable examples to shape
// loopback TCP into "a 25 Mbps path with 20 ms RTT" so multipath
// behaviour is observable on one machine.
//
// The shaping wraps a TCP relay: dial the relay instead of the server
// and every byte pays the configured rate and delay in each direction.
//
// Beyond shaping, the relay is a fault-injection harness for the
// robustness tests: RST injection (abortive close with SO_LINGER 0),
// mid-stream stalls, kill-after-N-bytes, half-close, and scripted fault
// schedules combining all of them (RunSchedule). A per-direction
// Mangler rewrites the byte stream itself: internal/middlebox's
// resegmenting, corrupting and firewalling boxes are manglers.
package netem

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
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
	// Mangle, if set, is called once per relayed connection for the
	// Mangler that rewrites this direction of it.
	Mangle func() Mangler
}

// A Mangler rewrites one direction of one relayed connection, a read
// chunk at a time, before shaping. The chunk is the Mangler's to keep
// or modify. It returns the chunks to forward instead (several, to
// resegment), and an error to abort the connection with a TCP RST
// once the returned chunks are forwarded.
type Mangler func(chunk []byte) ([][]byte, error)

// relayConn tracks one forwarded socket and which side of the relay it
// faces, so directional faults (half-close toward the client) can pick
// their victims.
type relayConn struct {
	nc           net.Conn
	clientFacing bool
}

// Relay is a shaping TCP forwarder with fault injection.
type Relay struct {
	ln      net.Listener
	target  string
	c2s     Profile
	s2c     Profile
	dropped atomic.Bool // when set, new and existing conns are killed
	done    chan struct{}
	conns   sync.Map // net.Conn -> *relayConn

	mu      sync.Mutex
	stallCh chan struct{} // non-nil while stalled; closed by Unstall
	// killBudget counts forwarded payload bytes still allowed before the
	// relay RSTs everything; negative means disarmed.
	killBudget int64
	killArmed  bool
}

// NewRelay starts a shaping relay toward target.
func NewRelay(target string, c2s, s2c Profile) (*Relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &Relay{ln: ln, target: target, c2s: c2s, s2c: s2c, done: make(chan struct{})}
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
	r.Unstall() // release pumps blocked on a stall gate
	r.conns.Range(func(k, _ interface{}) bool {
		k.(net.Conn).Close()
		return true
	})
	return err
}

// Blackhole kills all current connections and refuses new ones — the
// silent mid-path outage (no FIN reaches anyone on a real blackhole, but
// over loopback the close is visible; pair with Stall for true silence).
func (r *Relay) Blackhole() {
	r.dropped.Store(true)
	r.conns.Range(func(k, _ interface{}) bool {
		k.(net.Conn).Close()
		return true
	})
}

// Restore re-enables forwarding for new connections.
func (r *Relay) Restore() { r.dropped.Store(false) }

// RST aborts every forwarded connection with SO_LINGER 0, so the kernel
// sends a TCP RST instead of a FIN — the middlebox-injected-reset and
// crashed-peer failure mode. New connections are still accepted.
func (r *Relay) RST() {
	r.conns.Range(func(k, _ interface{}) bool {
		abortConn(k.(net.Conn))
		return true
	})
}

func abortConn(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	nc.Close()
}

// Stall freezes forwarding in both directions, mid-record if bytes are
// in flight: sockets stay open, nothing moves — the classic stalled-path
// failure only a timeout can detect. Unstall resumes.
func (r *Relay) Stall() {
	r.mu.Lock()
	if r.stallCh == nil {
		r.stallCh = make(chan struct{})
	}
	r.mu.Unlock()
}

// Unstall resumes forwarding after Stall.
func (r *Relay) Unstall() {
	r.mu.Lock()
	if r.stallCh != nil {
		close(r.stallCh)
		r.stallCh = nil
	}
	r.mu.Unlock()
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

// KillAfter arms a byte bomb: after n more forwarded payload bytes
// (both directions combined), every connection is RST — the
// kill-after-N-bytes fault that lands mid-transfer, typically
// mid-record.
func (r *Relay) KillAfter(n int64) {
	r.mu.Lock()
	r.killBudget = n
	r.killArmed = true
	r.mu.Unlock()
}

// consumeKillBudget accounts n forwarded bytes against an armed byte
// bomb. It returns how many of those bytes may still be forwarded and
// whether the bomb just went off. The caller must forward the allowed
// prefix and then pull the trigger (RST) itself — firing here would race
// the RST ahead of the very bytes the budget permits.
func (r *Relay) consumeKillBudget(n int) (allowed int, killed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.killArmed {
		return n, false
	}
	allowed = n
	if int64(allowed) > r.killBudget {
		allowed = int(r.killBudget)
	}
	r.killBudget -= int64(allowed)
	killed = r.killBudget <= 0
	if killed {
		r.killArmed = false
	}
	return allowed, killed
}

// HalfClose sends a FIN toward every client (the server appears to stop
// sending) while the client→server direction keeps flowing — the
// asymmetric-path failure that breaks naive "EOF means done" readers.
func (r *Relay) HalfClose() {
	r.conns.Range(func(k, v interface{}) bool {
		rc := v.(*relayConn)
		if rc.clientFacing {
			if tc, ok := rc.nc.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}
		return true
	})
}

// FaultKind enumerates scripted fault actions.
type FaultKind int

const (
	FaultRST FaultKind = iota + 1
	FaultBlackhole
	FaultRestore
	FaultStall
	FaultUnstall
	FaultHalfClose
	FaultKillAfter // Bytes carries the budget
)

// Fault is one step of a scripted schedule: at offset At from the start
// of RunSchedule, apply Kind.
type Fault struct {
	At    time.Duration
	Kind  FaultKind
	Bytes int64 // for FaultKillAfter
}

// RunSchedule plays a fault script against the relay on its own
// goroutine and closes the returned channel when the script (sorted by
// offset) has run. Closing the relay aborts the script.
func (r *Relay) RunSchedule(faults []Fault) <-chan struct{} {
	script := append([]Fault(nil), faults...)
	sort.SliceStable(script, func(i, j int) bool { return script[i].At < script[j].At })
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		start := time.Now()
		for _, f := range script {
			if d := f.At - time.Since(start); d > 0 {
				select {
				case <-time.After(d):
				case <-r.done:
					return
				}
			}
			r.apply(f)
		}
	}()
	return doneCh
}

func (r *Relay) apply(f Fault) {
	switch f.Kind {
	case FaultRST:
		r.RST()
	case FaultBlackhole:
		r.Blackhole()
	case FaultRestore:
		r.Restore()
	case FaultStall:
		r.Stall()
	case FaultUnstall:
		r.Unstall()
	case FaultHalfClose:
		r.HalfClose()
	case FaultKillAfter:
		r.KillAfter(f.Bytes)
	}
}

func (r *Relay) accept() {
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		if r.dropped.Load() {
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
	r.conns.Store(client, &relayConn{nc: client, clientFacing: true})
	r.conns.Store(server, &relayConn{nc: server})
	defer func() {
		r.conns.Delete(client)
		r.conns.Delete(server)
		client.Close()
		server.Close()
	}()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r.shapePump(client, server, r.c2s) }()
	go func() { defer wg.Done(); r.shapePump(server, client, r.s2c) }()
	wg.Wait()
}

// shapePump forwards src→dst applying mangling, rate, delay, and
// injected faults.
func (r *Relay) shapePump(src, dst net.Conn, p Profile) {
	var mangle Mangler
	if p.Mangle != nil {
		mangle = p.Mangle()
	}
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
			allowed, killed := r.consumeKillBudget(n)
			chunks := [][]byte{append([]byte(nil), buf[:allowed]...)}
			var merr error
			if mangle != nil && allowed > 0 {
				chunks, merr = mangle(chunks[0])
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
			if killed || merr != nil {
				// Drain the shaper so the allowed prefix reaches dst,
				// then abort: everything for the byte bomb, this
				// connection for a mangler.
				close(ch)
				<-done
				if killed {
					r.RST()
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
