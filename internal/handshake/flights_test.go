package handshake

import (
	"sync"
	"testing"
)

// The round trips each establishment flow spends before the server holds
// the first request byte, counted exactly: every flow runs over an
// in-memory duplex that dates each write by causality (one trip is half
// a round trip), plus one round trip for the TCP connect. The count is
// the protocol's shape, independent of load, host speed and how the two
// sides' goroutines interleave; bench/'s ttfb_*_p50_us fields are the
// wall-clock side of the same flows.

// segment is one write's bytes in flight, with the trip that carried
// them.
type segment struct {
	trip int
	b    []byte
}

// byteQueue is one direction of the duplex: an unbounded buffered pipe,
// so optimistic first flights (0-RTT, fast joins) never deadlock the
// way net.Pipe's rendezvous would.
type byteQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	segs []segment
}

func newByteQueue() *byteQueue {
	q := &byteQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *byteQueue) write(p []byte, trip int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.segs = append(q.segs, segment{trip, append([]byte(nil), p...)})
	q.cond.Broadcast()
}

// read fills p and returns the highest trip among the bytes it took.
func (q *byteQueue) read(p []byte) (n, trip int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.segs) == 0 {
		q.cond.Wait()
	}
	for n < len(p) && len(q.segs) > 0 {
		seg := &q.segs[0]
		k := copy(p[n:], seg.b)
		n += k
		trip = max(trip, seg.trip)
		if seg.b = seg.b[k:]; len(seg.b) == 0 {
			q.segs = q.segs[1:]
		}
	}
	return n, trip
}

// meteredConn is one side of the duplex. A write's trip is one more than
// the highest trip among the bytes this side has read: the flight it
// answers. Writes the peer made meanwhile, unread, do not count, so a
// ClientHello and its early data share trip 1 whenever the server's
// reply lands between them. writeTrips holds the trip of each Write, so
// a flow can name the flight that carried its request bytes.
type meteredConn struct {
	in, out    *byteQueue
	seen       int // highest trip read so far
	writeTrips []int
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, trip := c.in.read(p)
	c.seen = max(c.seen, trip)
	return n, nil
}

func (c *meteredConn) Write(p []byte) (int, error) {
	c.writeTrips = append(c.writeTrips, c.seen+1)
	c.out.write(p, c.seen+1)
	return len(p), nil
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
	c2s, s2c := newByteQueue(), newByteQueue()
	cli := &meteredConn{in: s2c, out: c2s}
	srv := &meteredConn{in: c2s, out: s2c}
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
			// first write carries the hello and the early-data records.
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
				return cli.writeTrips[0], nil
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
