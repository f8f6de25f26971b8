package handshake

import "io"

// Transport runs a Machine over a byte stream (usually a TCP connection):
// the one blocking loop behind Client, Server and the fast join. It
// writes each flight the machine hands out and feeds it what it reads,
// until the machine is done or fails.
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
	return t.run(m)
}

// Server runs the server side of any handshake over t; the ClientHello
// decides which.
func Server(t *Transport, cfg *Config) (*Result, error) { return t.run(NewServer(cfg)) }

// StartFastJoin writes a single-flight join ClientHello (cfg.Join): it
// carries the cookie and no key exchange follows, so the caller may
// follow it at once with engine records under the session's established
// keys, then waits for the server's plaintext ack with FinishFastJoin.
func StartFastJoin(t *Transport, cfg *Config) error {
	if cfg.Join == nil {
		return ErrJoinRejected
	}
	m, err := newClient(cfg, true)
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
	_, err := t.run(t.m)
	return err
}

// Leftover returns the bytes read behind the handshake's last record.
func (t *Transport) Leftover() []byte { return t.m.Leftover() }

// run is the loop: flights out, bytes in, until m is done or fails. A
// failed machine's last flight (a fast join's rejection) still goes out.
func (t *Transport) run(m *Machine) (*Result, error) {
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

func (t *Transport) write() error {
	for out := t.m.Flight(); len(out) > 0; out = t.m.Flight() {
		if _, err := t.rw.Write(out); err != nil {
			return err
		}
	}
	return nil
}
