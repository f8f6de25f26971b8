package main

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// memPipeCap is each direction's buffer. net.Pipe has none, so every
// Write would wait for the peer's Read and serialise the wrapper's writer
// and reader goroutines; 4 MiB is what loopback TCP autotunes its socket
// buffers to, so a writer here blocks about as rarely as on the kernel.
const memPipeCap = 4 << 20

// memPipe is one direction of an in-memory connection: a bounded byte
// FIFO with a deadline on each end.
type memPipe struct {
	mu   sync.Mutex
	cond sync.Cond
	buf  []byte
	r, n int // read offset and bytes buffered

	wclosed, rclosed bool
	rdeadline        pipeDeadline
	wdeadline        pipeDeadline
}

// pipeDeadline wakes the pipe's waiters when its time comes.
type pipeDeadline struct {
	t     time.Time
	timer *time.Timer
}

func newMemPipe() *memPipe {
	p := &memPipe{buf: make([]byte, memPipeCap)}
	p.cond.L = &p.mu
	return p
}

func (p *memPipe) setDeadline(d *pipeDeadline, t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	d.t = t
	if !t.IsZero() {
		d.timer = time.AfterFunc(time.Until(t), func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
	}
	p.cond.Broadcast()
}

func (d *pipeDeadline) passed() bool { return !d.t.IsZero() && !time.Now().Before(d.t) }

func (p *memPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 {
		switch {
		case p.rclosed:
			return 0, io.ErrClosedPipe
		case p.wclosed:
			return 0, io.EOF
		case p.rdeadline.passed():
			return 0, os.ErrDeadlineExceeded
		}
		p.cond.Wait()
	}
	n := len(b)
	if n > p.n {
		n = p.n
	}
	c := copy(b[:n], p.buf[p.r:])
	copy(b[c:n], p.buf)
	p.r = (p.r + n) % len(p.buf)
	p.n -= n
	p.cond.Broadcast()
	return n, nil
}

func (p *memPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for len(b) > 0 {
		for p.n == len(p.buf) && !p.wclosed && !p.rclosed && !p.wdeadline.passed() {
			p.cond.Wait()
		}
		switch {
		case p.wclosed || p.rclosed:
			return total, io.ErrClosedPipe
		case p.n == len(p.buf):
			return total, os.ErrDeadlineExceeded
		}
		w := (p.r + p.n) % len(p.buf)
		n := len(p.buf) - p.n
		if n > len(b) {
			n = len(b)
		}
		c := copy(p.buf[w:], b[:n])
		copy(p.buf, b[c:n])
		p.n += n
		b = b[n:]
		total += n
		p.cond.Broadcast()
	}
	return total, nil
}

func (p *memPipe) close(reader bool) {
	p.mu.Lock()
	if reader {
		p.rclosed = true
	} else {
		p.wclosed = true
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memConn is one end of a buffered in-memory net.Conn pair. It counts the
// bytes written to it and the Write calls that brought them, which is
// where the wrapper.wire_* metrics come from. It serves the wrapper.* and handshake.* probes only:
// the end-to-end runs keep their real loopback sockets, and with them
// the writev path net.Buffers takes on a *net.TCPConn.
type memConn struct {
	rd, wr        *memPipe
	local, remote memAddr
	once          sync.Once

	bytesWritten, writeCalls atomic.Int64
}

func newMemConnPair() (client, server *memConn) {
	up, down := newMemPipe(), newMemPipe()
	client = &memConn{rd: down, wr: up, local: "mem-client", remote: "mem-server"}
	server = &memConn{rd: up, wr: down, local: "mem-server", remote: "mem-client"}
	return client, server
}

func (c *memConn) Read(b []byte) (int, error) { return c.rd.read(b) }

func (c *memConn) Write(b []byte) (int, error) {
	n, err := c.wr.write(b)
	c.writeCalls.Add(1)
	c.bytesWritten.Add(int64(n))
	return n, err
}

func (c *memConn) Close() error {
	c.once.Do(func() {
		c.wr.close(false)
		c.rd.close(true)
		c.SetDeadline(time.Time{})
	})
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.rd.setDeadline(&c.rd.rdeadline, t)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.wr.setDeadline(&c.wr.wdeadline, t)
	return nil
}

// memListener hands the server end of each dialled pair to Accept, so
// tcpls.NewListener can serve in-memory connections.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr("mem-server") }

// dial makes a pair, queues its server end for Accept and returns the
// client end.
func (l *memListener) dial() (*memConn, error) {
	c, s := newMemConnPair()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
