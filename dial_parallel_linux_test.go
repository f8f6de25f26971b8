//go:build linux

package tcpls

import (
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestDialParallelHandshakesOnlyTheWinner: the race is of TCP connects
// alone. An address that connects after the winner receives no byte of
// a ClientHello, and its socket is closed, even though the connect
// completes after DialParallel has returned.
func TestDialParallelHandshakesOnlyTheWinner(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// An accept queue of one, filled by a connection nobody accepts yet:
	// the kernel drops the racing SYN to raw, whose connect then waits
	// for a retransmit and loses.
	rc, err := raw.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var lerr error
	if err := rc.Control(func(fd uintptr) { lerr = syscall.Listen(int(fd), 0) }); err != nil || lerr != nil {
		t.Fatal(err, lerr)
	}
	filler, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer filler.Close()

	sess, err := DialParallel("tcp", []string{ln.Addr().String(), raw.Addr().String()},
		10*time.Second, &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Make room: the losing connect completes at its SYN retransmit.
	raw.(*net.TCPListener).SetDeadline(time.Now().Add(8 * time.Second))
	first, err := raw.Accept()
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	loser, err := raw.Accept()
	if err != nil {
		t.Fatalf("the losing connect never completed: %v", err)
	}
	defer loser.Close()
	loser.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(loser)
	if len(got) != 0 || err != nil {
		t.Fatalf("the losing address read %d bytes (%v), want none and its socket closed", len(got), err)
	}
}
