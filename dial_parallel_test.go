package tcpls

import (
	"io"
	"net"
	"testing"
	"time"
)

func TestDialParallelPicksWorkingAddress(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)

	// A dead address (nothing listens) plus the live server: the race
	// must settle on the live one.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // now refuses connections

	sess, err := DialParallel("tcp",
		[]string{deadAddr, ln.Addr().String()},
		5*time.Second,
		&Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("race"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "race" {
		t.Fatalf("echo %q", buf)
	}
}

func TestDialParallelAllFail(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()
	if _, err := DialParallel("tcp", []string{addr, addr}, 2*time.Second, &Config{}); err == nil {
		t.Fatal("expected failure when every address is dead")
	}
}

func TestDialParallelNoAddrs(t *testing.T) {
	if _, err := DialParallel("tcp", nil, time.Second, &Config{}); err == nil {
		t.Fatal("expected error for empty address list")
	}
}

func TestDialParallelBothAlive(t *testing.T) {
	// Two live listeners for the same logical service: exactly one
	// session survives, the loser is closed cleanly.
	ln1 := startServer(t, &Config{}, echoHandler)
	ln2 := startServer(t, &Config{}, echoHandler)
	sess, err := DialParallel("tcp",
		[]string{ln1.Addr().String(), ln2.Addr().String()},
		5*time.Second, &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
}

// TestDialParallelClosesStalledHandshake: an address that connects but
// never answers the ClientHello costs the race its timeout, and its
// socket is closed then, not left open under a blocked handshake.
func TestDialParallelClosesStalledHandshake(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := raw.Accept(); err == nil {
			accepted <- c
		}
	}()
	start := time.Now()
	if _, err := DialParallel("tcp", []string{raw.Addr().String()}, 300*time.Millisecond,
		&Config{ServerName: "test.server"}); err == nil {
		t.Fatal("a peer that never answers gave a session")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("DialParallel returned %v after a 300ms timeout", d)
	}
	var c net.Conn
	select {
	case c = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled address never saw a connection")
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("the stalled address's socket was not closed: %v", err)
	}
}
