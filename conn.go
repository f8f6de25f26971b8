package tcpls

import (
	"io"
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
	// writable wakes the writer: signalled under s.mu by the driver when
	// the engine holds output for this connection, and by Shut and close.
	writable *sync.Cond
	// down: the driver shut the socket; the writer has nothing left to do.
	down bool
}

// startConnLocked starts c over nc: the driver puts it to work, then the
// reader and the writer run.
func (s *Session) startConnLocked(c *driver.Conn, nc net.Conn, leftover []byte, confirm bool) error {
	pc := s.newPathConn(c, nc)
	if err := s.drv.Start(c, pc, leftover, confirm); err != nil {
		return err
	}
	pc.run()
	return nil
}

func (s *Session) newPathConn(c *driver.Conn, nc net.Conn) *pathConn {
	return &pathConn{s: s, c: c, nc: nc, writable: sync.NewCond(&s.mu)}
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

// Wake rouses the writer.
func (pc *pathConn) Wake() { pc.writable.Signal() }

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

// writeLoop is the only puller of its connection's chunks, so bytes
// reach the socket in the order the engine sealed them whoever flushed.
// Each round, under one hold of s.mu, it settles the batch it has just
// written and pulls the next; the vectored write (writev via net.Buffers)
// runs outside the lock.
func (pc *pathConn) writeLoop() {
	s := pc.s
	chunks := make([][]byte, 0, writeBatchMax)
	// net.Buffers.WriteTo consumes the slice it is called on (that is how
	// it tracks writev progress), so each write gets a fresh view of one
	// scratch array and chunks is kept for the accounting.
	scratch := make(net.Buffers, 0, writeBatchMax)
	var iov net.Buffers // one variable for the loop: WriteTo takes its address
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		chunks = s.drv.Pull(pc.c, chunks[:0], writeBatchMax)
		if len(chunks) == 0 {
			if pc.down || s.drv.Ended() || pc.c.State == driver.Failed {
				return
			}
			pc.writable.Wait()
			continue
		}
		s.mu.Unlock()
		s.sendRoom.Broadcast() // the pull emptied this conn's queue, or nearly
		iov = append(scratch[:0], chunks...)
		written, err := iov.WriteTo(pc.nc)
		s.mu.Lock()
		s.drv.Settle(pc.c, chunks, written, err)
		if s.closed {
			s.cond.Broadcast() // Close waits for the drain's last byte
		}
	}
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
			s.cond.Broadcast()
			// Receive-buffer backpressure: while the engine reports a
			// full buffer fed by this connection, park instead of
			// reading more — the kernel buffer fills, TCP's receive
			// window closes, and the peer stalls. Stream.Read drains the
			// buffer and broadcasts to resume.
			for !s.drv.Ended() && pc.c.State != driver.Failed && s.engine.RecvPaused(pc.c.ID) {
				s.cond.Wait()
			}
		}
		if err != nil {
			s.drv.Down(pc.c, err == io.EOF)
			s.cond.Broadcast()
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
