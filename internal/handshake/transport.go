package handshake

import (
	"io"
	"time"
)

// Transport runs a Machine over a byte stream (usually a TCP connection)
// in one blocking loop: it writes each flight the machine hands out and
// feeds it what it reads, until the machine is done or fails. The
// listener runs each accepted connection's handshake through Accept.
// Client, Server and the fast join's two halves are blocking wrappers
// for benchmarks and tests: a session's client connections run their
// handshakes in internal/driver instead, fed by the connection's reader.
type Transport struct {
	rw  io.ReadWriter
	m   *Machine
	buf []byte
}

// NewTransport wraps a byte stream.
func NewTransport(rw io.ReadWriter) *Transport {
	return &Transport{rw: rw, buf: make([]byte, 16<<10)}
}

// Client runs the client side of a full, resumed, 0-RTT or join
// handshake over t (paper Fig. 3).
func Client(t *Transport, cfg *Config) (*Result, error) {
	m, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	return t.Run(m)
}

// Server runs the server side of any handshake over t; the ClientHello
// decides which.
func Server(t *Transport, cfg *Config) (*Result, error) { return t.Run(NewServer(cfg)) }

// StartFastJoin writes a single-flight join ClientHello (cfg.Join): it
// carries the cookie and no key exchange follows, so the caller may
// follow it at once with engine records under the session's established
// keys, then waits for the server's plaintext ack with FinishFastJoin.
func StartFastJoin(t *Transport, cfg *Config) error {
	m, err := NewFastJoin(cfg)
	if err != nil {
		return err
	}
	t.m = m
	return t.write()
}

// FinishFastJoin reads the server's join ack. A rejection means the
// cookie was spent for nothing and the records behind the hello were
// dropped.
func FinishFastJoin(t *Transport) error {
	_, err := t.Run(t.m)
	return err
}

// Run is the loop: flights out, bytes in, until m is done or fails. A
// failed machine's last flight (a fast join's rejection) still goes out.
func (t *Transport) Run(m *Machine) (*Result, error) {
	t.m = m
	for {
		if err := t.write(); err != nil {
			return nil, err
		}
		if err := m.Err(); err != nil {
			return nil, err
		}
		if m.Done() {
			return m.Result(), nil
		}
		n, err := t.rw.Read(t.buf)
		if n > 0 {
			m.Feed(t.buf[:n]) // its error surfaces above, after the flight it leaves
			continue
		}
		if err != nil {
			return nil, err
		}
	}
}

// Accept runs an accepted connection's handshake until its verdict, on
// the wall clock; a read or write error ends it, the connection's
// deadline among them.
func (t *Transport) Accept(h *Incoming) Verdict {
	for {
		for out := h.Flight(); len(out) > 0; out = h.Flight() {
			if _, err := t.rw.Write(out); err != nil {
				return h.Close(err, time.Now())
			}
		}
		if v := h.Verdict(); v.Outcome != Handshaking {
			return v
		}
		n, err := t.rw.Read(t.buf)
		if n > 0 {
			h.Feed(t.buf[:n], time.Now())
			continue
		}
		if err != nil {
			return h.Close(err, time.Now())
		}
	}
}

func (t *Transport) write() error {
	for out := t.m.Flight(); len(out) > 0; out = t.m.Flight() {
		if _, err := t.rw.Write(out); err != nil {
			return err
		}
	}
	return nil
}
