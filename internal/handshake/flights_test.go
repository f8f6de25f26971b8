package handshake

import (
	"sync"
	"testing"
)

// The round trips each establishment flow spends before the server holds
// the first request byte, counted exactly: every flow runs over an
// in-memory duplex that counts wire direction switches (one switch is
// half a round trip), plus one round trip for the TCP connect. The
// count is the protocol's shape, independent of load and host speed;
// bench/'s ttfb_*_p50_us fields are the wall-clock side of the same
// flows.

// meter counts direction switches across the duplex. Writes within one
// flight (same side) do not advance it.
type meter struct {
	mu    sync.Mutex
	trips int
	last  int
}

func (m *meter) note(side int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last != side {
		m.trips++
		m.last = side
	}
	return m.trips
}

// byteQueue is one direction of the duplex: an unbounded buffered pipe,
// so optimistic first flights (0-RTT, fast joins) never deadlock the
// way net.Pipe's rendezvous would.
type byteQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
}

func newByteQueue() *byteQueue {
	q := &byteQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *byteQueue) Write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.buf = append(q.buf, p...)
	q.cond.Broadcast()
	return len(p), nil
}

func (q *byteQueue) Read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 {
		q.cond.Wait()
	}
	n := copy(p, q.buf)
	q.buf = q.buf[n:]
	return n, nil
}

// meteredConn is one side of the duplex. writeTrips holds the trip
// count at each Write, so a flow can name the flight that carried its
// request bytes.
type meteredConn struct {
	side       int
	m          *meter
	in, out    *byteQueue
	writeTrips []int
}

func (c *meteredConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c *meteredConn) Write(p []byte) (int, error) {
	c.writeTrips = append(c.writeTrips, c.m.note(c.side))
	return c.out.Write(p)
}

// lastTrip is the trip count of the side's latest write.
func (c *meteredConn) lastTrip() int { return c.writeTrips[len(c.writeTrips)-1] }

// tcpConnectTrips is the SYN / SYN-ACK every flow pays before its first
// TLS byte; the final ACK of the three-way handshake rides with the
// ClientHello.
const tcpConnectTrips = 2

// roundTrips runs one flow over a fresh duplex: client on the calling
// goroutine, returning the trip count of the write that carried the
// request, and server concurrently. The result is in round trips,
// including the TCP connect.
func roundTrips(t *testing.T, server func(*meteredConn) error, client func(*meteredConn) (int, error)) float64 {
	t.Helper()
	m := &meter{}
	c2s, s2c := newByteQueue(), newByteQueue()
	cli := &meteredConn{side: 1, m: m, in: s2c, out: c2s}
	srv := &meteredConn{side: 2, m: m, in: c2s, out: s2c}
	srvErr := make(chan error, 1)
	go func() { srvErr <- server(srv) }()
	trips, err := client(cli)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	return float64(trips+tcpConnectTrips) / 2
}

// TestRoundTripsToFirstRequestByte pins the round trips, TCP connect
// included, until the server holds the first request byte: 2.5 for a
// full handshake and for a ticket resumption (lighter flights, same
// shape), 1.5 for 0-RTT, 2.5 for a two-flight join and 1.5 for a fast
// join, whose cookie, STREAM_ATTACH and data ride the first flight.
func TestRoundTripsToFirstRequestByte(t *testing.T) {
	cert := testCert(t)
	req := []byte("GET /early HTTP/1.0\r\n\r\n")
	psk := make([]byte, 32)
	for i := range psk {
		psk[i] = byte(i)
	}
	ticket := []byte("resumption-ticket")
	decrypt := func(tk []byte) ([]byte, bool) { return psk, string(tk) == string(ticket) }

	var sessID SessID
	var cookie Cookie
	for i := range sessID {
		sessID[i] = byte(0xa0 + i)
	}
	for i := range cookie {
		cookie[i] = byte(0x50 + i)
	}
	// Cookies are single use: each join flow gets a fresh table.
	sessions := func() *sessionTable {
		return &sessionTable{id: sessID, cookies: map[Cookie]bool{cookie: true}}
	}
	join := &JoinTicket{SessID: sessID, Cookie: cookie, ConnID: 7}

	// serve runs the server side of one flow and applies check to its
	// result.
	serve := func(cfg *Config, check func(*Result) string) func(*meteredConn) error {
		return func(srv *meteredConn) error {
			res, err := Server(NewTransport(srv), cfg)
			if err == nil && check != nil {
				if msg := check(res); msg != "" {
					t.Error(msg)
				}
			}
			return err
		}
	}
	// handshakeThenRequest is the client of every flow whose request
	// follows the client's Finished.
	handshakeThenRequest := func(cfg *Config, check func(*Result) string) func(*meteredConn) (int, error) {
		return func(cli *meteredConn) (int, error) {
			res, err := Client(NewTransport(cli), cfg)
			if err != nil {
				return 0, err
			}
			if check != nil {
				if msg := check(res); msg != "" {
					t.Error(msg)
				}
			}
			cli.Write(req)
			return cli.lastTrip(), nil
		}
	}

	flows := []struct {
		name   string
		want   float64
		server func(*meteredConn) error
		client func(*meteredConn) (int, error)
	}{
		{
			name:   "full",
			want:   2.5,
			server: serve(&Config{Certificate: cert, TCPLSServer: true}, nil),
			client: handshakeThenRequest(&Config{ServerName: "server.example", EnableTCPLS: true}, nil),
		},
		{
			name:   "resumed",
			want:   2.5,
			server: serve(&Config{Certificate: cert, TCPLSServer: true, DecryptTicket: decrypt}, nil),
			client: handshakeThenRequest(
				&Config{ServerName: "server.example", EnableTCPLS: true, PSK: psk, PSKTicket: ticket},
				func(r *Result) string {
					if !r.Resumed {
						return "resumed: ticket not accepted"
					}
					return ""
				}),
		},
		{
			// The request rides the ClientHello flight: the client's
			// second write is the first early-data record.
			name: "0-RTT",
			want: 1.5,
			server: serve(&Config{Certificate: cert, TCPLSServer: true, DecryptTicket: decrypt},
				func(r *Result) string {
					if !r.EarlyDataAccepted || string(r.EarlyData) != string(req) {
						return "0-RTT: early data not delivered in the handshake"
					}
					return ""
				}),
			client: func(cli *meteredConn) (int, error) {
				res, err := Client(NewTransport(cli), &Config{ServerName: "server.example", EnableTCPLS: true,
					PSK: psk, PSKTicket: ticket, EarlyData: req})
				if err != nil {
					return 0, err
				}
				if !res.EarlyDataAccepted {
					t.Error("0-RTT: early data rejected")
				}
				if len(cli.writeTrips) < 2 {
					t.Fatal("0-RTT: no early flight written")
				}
				return cli.writeTrips[1], nil
			},
		},
		{
			name:   "join",
			want:   2.5,
			server: serve(&Config{Certificate: cert, TCPLSServer: true, Sessions: sessions()}, nil),
			client: handshakeThenRequest(&Config{ServerName: "server.example", Join: join},
				func(r *Result) string {
					if !r.JoinAccepted {
						return "join: rejected"
					}
					return ""
				}),
		},
		{
			// The engine's records follow the ClientHello directly.
			name: "fast join",
			want: 1.5,
			server: serve(&Config{Certificate: cert, TCPLSServer: true, Sessions: sessions()},
				func(r *Result) string {
					if !r.FastJoin {
						return "fast join: server did not take the fast path"
					}
					return ""
				}),
			client: func(cli *meteredConn) (int, error) {
				tr := NewTransport(cli)
				if err := StartFastJoin(tr, &Config{Join: join}); err != nil {
					return 0, err
				}
				cli.Write(req)
				trip := cli.lastTrip()
				return trip, FinishFastJoin(tr)
			},
		},
	}
	for _, f := range flows {
		if got := roundTrips(t, f.server, f.client); got != f.want {
			t.Errorf("%s: %.1f round trips to the first request byte, want %.1f", f.name, got, f.want)
		}
	}
}
