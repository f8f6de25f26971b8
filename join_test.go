package tcpls

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tcpls/internal/fault"
	"tcpls/internal/netem"
)

// drainServer serves one download per session: on the client's "GO" it
// couples the request stream, queues size pattern bytes on the coupled
// group, closes the session at once and reports that Close returned.
func drainServer(t *testing.T, cfg *Config, size int, closed chan<- struct{}) *Listener {
	return startServer(t, cfg, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		if _, err := io.ReadFull(st, make([]byte, 2)); err != nil {
			return
		}
		sess.Couple(st)
		if _, err := sess.WriteCoupled(pattern(size)); err != nil {
			t.Errorf("server write: %v", err)
		}
		sess.Close()
		close(closed)
	})
}

func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>11)
	}
	return p
}

// readCoupled reads until n bytes have arrived.
func readCoupled(sess *Session, got []byte, n int) ([]byte, error) {
	buf := make([]byte, 64<<10)
	for len(got) < n {
		k, err := sess.ReadCoupled(buf)
		if err != nil {
			return got, fmt.Errorf("after %d bytes: %w", len(got), err)
		}
		got = append(got, buf[:k]...)
	}
	return got, nil
}

// download reads the rest of a size-byte pattern download and checks it.
func download(t *testing.T, sess *Session, got []byte, size int) {
	t.Helper()
	got, err := readCoupled(sess, got, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(size)) {
		t.Fatal("download corrupted")
	}
}

// TestJoinDuringServerDrain: a server that queued a download and closed
// its session at once still adopts a join while the download drains — the
// shape of examples/migration, which is how a client migrates a transfer
// (§3.3.2). The client reads every byte.
func TestJoinDuringServerDrain(t *testing.T) {
	const size = 8 << 20
	closed := make(chan struct{})
	ln := drainServer(t, &Config{}, size, closed)
	slow, err := netem.NewRelay(ln.Addr().String(),
		netem.Profile{RateBps: 80_000_000}, netem.Profile{RateBps: 80_000_000})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	sess, err := Dial("tcp", slow.Addr(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("GO"))
	got, err := readCoupled(sess, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed: // the rest is on its way through the relay
	case <-time.After(10 * time.Second):
		t.Fatal("server Close did not return")
	}
	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err != nil {
		t.Fatalf("join during the server's drain: %v", err)
	}
	download(t, sess, got, size)
}

// TestBrokenPathRecoveredDuringDrain: the only path stalls while a
// closed server session still has a download in flight on it. The
// client's user timeout fails the path, a join reaches the draining
// session, failover replays what the stalled path holds, and the client
// reads every byte.
func TestBrokenPathRecoveredDuringDrain(t *testing.T) {
	const size = 8 << 20
	closed := make(chan struct{})
	ln := drainServer(t, &Config{EnableFailover: true}, size, closed)
	relay, err := netem.NewRelay(ln.Addr().String(),
		netem.Profile{RateBps: 80_000_000}, netem.Profile{RateBps: 80_000_000})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	sess, err := Dial("tcp", relay.Addr(), &Config{
		ServerName: "test.server", EnableFailover: true, UserTimeout: time.Second,
		Reconnect: ReconnectConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("GO"))
	got, err := readCoupled(sess, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close did not return")
	}
	relay.Run(fault.Fault{Kind: fault.Stall})
	type result struct {
		got []byte
		err error
	}
	rest := make(chan result, 1)
	go func() {
		all, err := readCoupled(sess, got, size)
		rest <- result{all, err}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for ev, err := sess.WaitEvent(ctx); ev.Kind != EventConnDown; ev, err = sess.WaitEvent(ctx) {
		if err != nil {
			t.Fatalf("waiting for the user timeout: %v", err)
		}
	}
	_, err = sess.JoinPath("tcp", ln.Addr().String())
	if err != nil {
		sess.Close()
	}
	r := <-rest
	switch {
	case err != nil:
		t.Fatalf("join during the server's drain: %v", err)
	case r.err != nil:
		t.Fatal(r.err)
	case !bytes.Equal(r.got, pattern(size)):
		t.Fatal("download corrupted")
	}
}

// TestCloseRightAfterJoin: JoinPath returns only once the server has
// adopted the connection, so a Close issued the moment it returns cannot
// reach the server on the first connection alone and end the session as
// an orderly goodbye before the joined connection's bytes are read.
func TestCloseRightAfterJoin(t *testing.T) {
	const size = 64 << 10
	got := make(chan int, 1)
	ln := startServer(t, &Config{}, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			got <- -1
			return
		}
		n, _ := io.Copy(io.Discard, st)
		got <- int(n)
	})
	for i := 0; i < 20; i++ {
		sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := sess.JoinPath("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		st, err := sess.OpenStreamOn(conn)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		st.Close()
		sess.Close()
		select {
		case n := <-got:
			if n != size {
				t.Fatalf("round %d: the server read %d of %d bytes", i, n, size)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the server never read the joined connection's stream", i)
		}
	}
}

// TestJoinConnEcho: an application-dialed connection joins through
// JoinConn and carries a stream.
func TestJoinConnEcho(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cookies := sess.Cookies()
	conn, err := sess.JoinConn(nc)
	if err != nil {
		t.Fatal(err)
	}
	if conn == 0 || sess.Cookies() != cookies-1 {
		t.Fatalf("joined conn %d, %d of %d cookies left", conn, sess.Cookies(), cookies)
	}
	st, err := sess.OpenStreamOn(conn)
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("via JoinConn"))
	buf := make([]byte, 12)
	if _, err := io.ReadFull(st, buf); err != nil || string(buf) != "via JoinConn" {
		t.Fatalf("echo %q: %v", buf, err)
	}
}

// TestApplicationFailoverMidEcho is the paper's application-triggered
// migration (§3.3.2): halfway through a 16 MiB echo the client joins a
// fresh connection and moves its stream there with Failover while the
// first connection is still healthy. Both directions stay byte-exact (the
// echo comes back identical), no record fails to decrypt at either end,
// and the client's trace shows the failover onto the joined connection.
func TestApplicationFailoverMidEcho(t *testing.T) {
	const size, half = 16 << 20, 8 << 20
	srvCh := make(chan *Session, 1)
	ln := startServer(t, &Config{EnableFailover: true}, func(sess *Session) {
		srvCh <- sess
		echoHandler(sess)
	})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true,
		Telemetry: TelemetryConfig{FlightCapacity: 1 << 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := <-srvCh
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(size)
	echoed := make(chan error, 1)
	go func() {
		got := make([]byte, size)
		if _, err := io.ReadFull(st, got); err != nil {
			echoed <- err
			return
		}
		if !bytes.Equal(got, data) {
			echoed <- errors.New("echo differs from what was written")
			return
		}
		echoed <- nil
	}()

	if _, err := st.Write(data[:half]); err != nil {
		t.Fatal(err)
	}
	joined, err := sess.JoinPath("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Failover(0, joined); err != nil {
		t.Fatalf("Failover(0, %d): %v", joined, err)
	}
	if conn, err := st.Conn(); err != nil || conn != joined {
		t.Fatalf("stream on conn %d (%v) after Failover, want %d", conn, err, joined)
	}
	var trace bytes.Buffer
	if err := sess.DumpFlight(&trace); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(data[half:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-echoed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("echo did not complete after the failover")
	}

	// The failover of conn 0, and the stream's SYNC on the joined conn.
	started := `"type":"failover_started","data":{"conn":0,`
	synced := fmt.Sprintf(`"type":"sync_sent","data":{"conn":%d,"stream":%d,`, joined, st.ID())
	if !strings.Contains(trace.String(), started) || !strings.Contains(trace.String(), synced) {
		t.Fatalf("client trace lacks the failover of conn 0 onto conn %d", joined)
	}
	if cs, ss := sess.Stats(), srv.Stats(); cs.FailedDecrypts != 0 || ss.FailedDecrypts != 0 {
		t.Fatalf("failed decrypts: client %d, server %d", cs.FailedDecrypts, ss.FailedDecrypts)
	}
}
