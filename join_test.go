package tcpls

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

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
	relay.Stall()
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
