package tcpls

import (
	"bytes"
	"cmp"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"tcpls/internal/driver"
)

// pathConn is the driver's transport over one TCP connection. Each
// connection has its own reader and writer goroutine, so multipath
// sessions push bytes onto all paths concurrently — serializing socket
// writes would cap aggregation at a single path's rate.
type pathConn struct {
	s  *Session
	c  *driver.Conn
	nc net.Conn
	// writable wakes the writer: signalled under s.mu by Wake when the
	// writer is to take the engine's output, and by Shut and close.
	writable *sync.Cond
	// pulling: a goroutine — the writer, or a caller writing its own
	// small output (flushOwnLocked) — holds the turn at this connection's
	// chunks. One at a time, so bytes reach the socket in the order the
	// engine sealed them, whoever flushed.
	pulling bool
	// down: the driver shut the socket; the writer has nothing left to do.
	down bool
	// The turn's scratch, so a write allocates nothing: chunks for the
	// accounting, iov for the vectored write. net.Buffers.WriteTo
	// consumes the slice it is called on (that is how it tracks writev
	// progress), so each write gets a fresh view of iovArr.
	chunks [][]byte
	iovArr [writeBatchMax][]byte
	iov    net.Buffers
}

// connect runs client connection c over nc, which is c's from here: the
// driver takes the socket as c's transport and runs the handshake on it
// (Open), while this goroutine pumps the socket until c leaves
// Connecting — the client's last flight and the engine's first records
// leave from here, with no writer to wake. Then c's reader and writer
// take over, and connect waits until the peer has adopted c. A join's
// address is remembered for redials (network is how it was dialed).
// fast, when set, makes c a single-flight join and queues its first
// records, under s.mu, behind the hello.
func (s *Session) connect(c *driver.Conn, nc net.Conn, network string, fast func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pc := s.newPathConn(c, nc)
	pc.pulling = true // the pump's turn at the pull, until c leaves Connecting
	err := s.drv.Open(c, pc, fast != nil)
	if err == nil && fast != nil {
		if err = fast(); err != nil {
			s.drv.Abort(c, err)
		}
	}
	if err == nil {
		pc.pumpLocked()
	}
	pc.pulling = false
	if err != nil || c.State == driver.Failed {
		nc.Close()
		return cmp.Or(err, c.Err, errNotAdopted)
	}
	pc.run()
	for c.State == driver.Joining && !s.drv.Ended() {
		s.cond.Wait()
	}
	switch {
	case c.State == driver.Live:
	case c.Err != nil:
		return c.Err
	case s.drv.Ended():
		return s.closedErrLocked()
	default:
		return errNotAdopted
	}
	if c.Addr != "" {
		s.rememberAddrLocked(c.Addr)
		if s.dialNetwork == "" {
			s.dialNetwork = network
		}
	}
	return nil
}

// errNotAdopted: a client connection ended before the peer took it.
var errNotAdopted = errors.New("tcpls: connection not adopted")

// pumpLocked is the handshake's loop on the calling goroutine: write what
// the driver holds for the connection, read, feed, until it leaves
// Connecting. The caller holds s.mu and the connection's turn.
func (pc *pathConn) pumpLocked() {
	s := pc.s
	arr := readBufs.Get().(*[readBufLen]byte)
	defer readBufs.Put(arr)
	for {
		pc.writeBatchLocked(true)
		if pc.c.State != driver.Connecting {
			return
		}
		s.mu.Unlock()
		n, err := pc.nc.Read(arr[:])
		s.mu.Lock()
		if n > 0 {
			if rerr := s.drv.Receive(pc.c, arr[:n]); rerr != nil {
				s.drv.Fail(rerr)
			}
			s.wakeInputLocked() // a join's leftover may carry stream data
		}
		if err != nil {
			s.drv.Abort(pc.c, err) // nothing to do past Connecting
		}
	}
}

func (s *Session) newPathConn(c *driver.Conn, nc net.Conn) *pathConn {
	return &pathConn{s: s, c: c, nc: nc, writable: sync.NewCond(&s.mu), chunks: make([][]byte, 0, writeBatchMax)}
}

// run starts the reader and the writer.
func (pc *pathConn) run() {
	go pc.readLoop()
	go pc.writeLoop()
	pc.s.cond.Broadcast()
}

// pathConnLocked returns connection id's transport, or nil.
func (s *Session) pathConnLocked(id uint32) *pathConn {
	if c := s.drv.Conn(id); c != nil {
		pc, _ := c.T.(*pathConn)
		return pc
	}
	return nil
}

// Wake hands the connection's output to one goroutine. A turn at the
// pull that is under way takes it when it settles; a caller of
// flushOwnLocked takes what it has just queued when that fits
// sendQueueBytes; anything else — a larger batch, or a flush a readLoop,
// a timer or the driver started — is the writer's.
func (pc *pathConn) Wake() {
	s := pc.s
	switch {
	case pc.pulling:
	case s.owning && s.owned == nil && s.engine.QueuedBytes(pc.c.ID) <= sendQueueBytes:
		pc.pulling = true
		s.owned = pc
	default:
		pc.writable.Signal()
	}
}

// Shut closes the socket, or after the goodbye ends its write side so
// the peer reads the goodbye and then EOF; the reader closes it at the
// peer's EOF or after DrainTimeout.
func (pc *pathConn) Shut(graceful bool) {
	if !graceful || !lingeringClose(pc.nc, time.Now().Add(driver.DrainTimeout)) {
		pc.nc.Close()
	}
	pc.down = true
	pc.writable.Signal()
}

// lingeringClose ends nc's write side. Closing a socket that has unread
// bytes — and the peer's acks are always on their way — resets the
// connection, and the reset discards what the kernel has not sent yet,
// goodbye included. False when nc cannot half-close.
func lingeringClose(nc net.Conn, deadline time.Time) bool {
	hc, ok := nc.(interface{ CloseWrite() error })
	return ok && hc.CloseWrite() == nil && nc.SetReadDeadline(deadline) == nil
}

// writeLoop is the connection's writer: it takes every turn at the pull
// no caller takes, until the connection is done.
func (pc *pathConn) writeLoop() {
	s := pc.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if !pc.pulling {
			pc.pulling = true
			wrote := pc.writeBatchLocked(false)
			pc.pulling = false
			if wrote {
				continue
			}
			if pc.doneLocked() {
				return
			}
		}
		pc.writable.Wait()
	}
}

// writeBatchLocked is one turn's round, for the writer, a caller and the
// handshake's pump alike: pull a batch of chunks, write it outside the
// lock, and settle it under the lock again. A batch goes out with one
// writev (net.Buffers); the pump's (all) takes everything queued, its
// flight first, and writes it as one buffer: the handshake's flights are
// small, and any net.Conn then sees one write, with writev or without.
// The caller holds s.mu and the turn. False when nothing was queued.
func (pc *pathConn) writeBatchLocked(all bool) bool {
	s := pc.s
	max := writeBatchMax
	if all {
		max = math.MaxInt
	}
	if pc.chunks = s.drv.Pull(pc.c, pc.chunks[:0], max); len(pc.chunks) == 0 {
		return false
	}
	s.mu.Unlock()
	s.sendRoom.Broadcast() // the pull emptied this conn's queue, or nearly
	var written int64
	var err error
	if all {
		out := pc.chunks[0]
		if len(pc.chunks) > 1 {
			out = bytes.Join(pc.chunks, nil)
		}
		var n int
		n, err = pc.nc.Write(out)
		written = int64(n)
	} else {
		pc.iov = append(pc.iovArr[:0], pc.chunks...)
		written, err = pc.iov.WriteTo(pc.nc)
	}
	s.mu.Lock()
	s.drv.Settle(pc.c, pc.chunks, written, err)
	if s.closed {
		s.cond.Broadcast() // Close waits for the drain's last byte
	}
	return true
}

// releaseLocked ends a caller's turn. What the turn left — output queued
// meanwhile, or the connection's end — is the writer's.
func (pc *pathConn) releaseLocked() {
	pc.pulling = false
	if pc.doneLocked() || pc.s.engine.HasOutgoing(pc.c.ID) {
		pc.writable.Signal()
	}
}

// doneLocked: the connection takes no more output.
func (pc *pathConn) doneLocked() bool {
	return pc.down || pc.s.drv.Ended() || pc.c.State == driver.Failed
}

// readBufLen sizes each connection's read buffer. 256 KiB holds a full
// batch of ~16 max-size TLS records, so one kernel read feeds the engine
// a writev-sized burst that is deframed in place.
const readBufLen = 256 << 10

// readBufs recycles read buffers: zeroing one per connection was 6 % of connect_churn.
var readBufs = sync.Pool{New: func() any { return new([readBufLen]byte) }}

// readLoop pumps bytes from one TCP connection into the engine until the
// socket fails or reaches the peer's end of stream, which it reports to
// the driver.
func (pc *pathConn) readLoop() {
	s := pc.s
	// The engine keeps no view into buf between Receive calls.
	arr := readBufs.Get().(*[readBufLen]byte)
	defer readBufs.Put(arr)
	buf := arr[:]
	for {
		n, err := pc.nc.Read(buf)
		s.mu.Lock()
		if n > 0 {
			if rerr := s.drv.Receive(pc.c, buf[:n]); rerr != nil {
				s.drv.Fail(rerr)
			}
			s.wakeInputLocked()
			// Receive-buffer backpressure: while the engine reports a
			// full buffer fed by this connection, park instead of
			// reading more — the kernel buffer fills, TCP's receive
			// window closes, and the peer stalls. Stream.Read drains the
			// buffer and signals recvRoom to resume.
			for !s.drv.Ended() && pc.c.State != driver.Failed && s.engine.RecvPaused(pc.c.ID) {
				s.recvRoom.Wait()
			}
		}
		if err != nil {
			s.drv.Down(pc.c, err == io.EOF)
			s.wakeInputLocked()
			done := pc.down || s.drv.Ended() // else the driver shuts it once its writer is done
			s.mu.Unlock()
			if done {
				pc.nc.Close()
			}
			return
		}
		s.mu.Unlock()
	}
}

// wallClock is the driver's clock on a live session: time.Now, timers
// that run under s.mu, and math/rand jitter.
type wallClock struct{ s *Session }

func (wallClock) Now() time.Time { return time.Now() }

func (w wallClock) After(d time.Duration, f func()) func() {
	stopped := false // under s.mu, like every caller of stop
	t := time.AfterFunc(d, func() {
		w.s.mu.Lock()
		defer w.s.mu.Unlock()
		if !stopped {
			f()
		}
	})
	return func() {
		stopped = true
		t.Stop()
	}
}

func (wallClock) Int63n(n int64) int64 { return rand.Int63n(n) }
