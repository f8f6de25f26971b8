package netem

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"tcpls/internal/fault"
)

// startSink runs a TCP server that echoes everything.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

func TestForwardingIntact(t *testing.T) {
	addr := startEcho(t)
	r, err := NewRelay(addr, Profile{}, Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := bytes.Repeat([]byte("shaped"), 10000)
	go c.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("relay corrupted data")
	}
}

func TestDelayApplied(t *testing.T) {
	addr := startEcho(t)
	r, err := NewRelay(addr, Profile{Delay: 20 * time.Millisecond}, Profile{Delay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 40*time.Millisecond {
		t.Errorf("rtt %v, want >= 40ms", rtt)
	}
}

func TestRateLimitApplied(t *testing.T) {
	addr := startEcho(t)
	// 8 Mbps = 1 MB/s each way.
	r, err := NewRelay(addr, Profile{RateBps: 8_000_000}, Profile{RateBps: 8_000_000})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 1 MiB echo: the two directions pipeline, so the wall time is the
	// serialization time of the slower leg, ~1 s at 1 MB/s.
	size := 1 << 20
	go c.Write(make([]byte, size))
	start := time.Now()
	if _, err := io.ReadFull(c, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 900*time.Millisecond {
		t.Errorf("1 MiB echo at 8 Mbps took %v, want >= ~1s", elapsed)
	}
}

func TestBlackholeKillsConnections(t *testing.T) {
	addr := startEcho(t)
	r, err := NewRelay(addr, Profile{}, Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("x"))
	io.ReadFull(c, make([]byte, 1))
	r.Run(fault.Fault{Kind: fault.Blackhole})
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived blackhole")
	}
	// New connections die immediately too (accept loop closes them).
	c2, err := net.Dial("tcp", r.Addr())
	if err == nil {
		c2.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c2.Read(make([]byte, 1)); err == nil {
			t.Fatal("new connection worked through blackhole")
		}
		c2.Close()
	}
	r.Run(fault.Fault{Kind: fault.Restore})
	c3, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	go c3.Write([]byte("back"))
	buf := make([]byte, 4)
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c3, buf); err != nil {
		t.Fatalf("restore did not work: %v", err)
	}
}

func TestRSTAbortsConnections(t *testing.T) {
	addr := startEcho(t)
	r, err := NewRelay(addr, Profile{}, Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("x"))
	io.ReadFull(c, make([]byte, 1))
	r.Run(fault.Fault{Kind: fault.RST})
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded after RST")
	}
	// The abort kills both directions (unlike a half-close): writes into
	// the reset socket must start failing too.
	writeDead := false
	for i := 0; i < 50 && !writeDead; i++ {
		if _, err := c.Write([]byte("x")); err != nil {
			writeDead = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !writeDead {
		t.Fatal("writes kept succeeding after RST")
	}
	// Unlike Blackhole, new connections still work after an RST.
	c2, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	go c2.Write([]byte("ok"))
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c2, make([]byte, 2)); err != nil {
		t.Fatalf("new connection after RST: %v", err)
	}
}

func TestStallFreezesAndUnstallResumes(t *testing.T) {
	addr := startEcho(t)
	r, err := NewRelay(addr, Profile{}, Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("a"))
	io.ReadFull(c, make([]byte, 1))

	r.Run(fault.Fault{Kind: fault.Stall})
	c.Write([]byte("b"))
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("bytes flowed through a stalled relay")
	}
	// The socket is still open — a stall is not a close.
	r.Run(fault.Fault{Kind: fault.Unstall})
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		t.Fatalf("unstall did not resume: %v", err)
	}
}

func TestKillAfterCutsAtExactByte(t *testing.T) {
	// A plain sink (no echo) so the byte budget is consumed by one
	// direction only and the cut point is deterministic.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan int, 1)
	go func() {
		s, err := ln.Accept()
		if err != nil {
			return
		}
		n, _ := io.Copy(io.Discard, s)
		s.Close()
		received <- int(n)
	}()

	r, err := NewRelay(ln.Addr().String(), Profile{}, Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Prime the relay's conn tracking, then arm the bomb.
	if _, err := c.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	r.Run(fault.Fault{Kind: fault.KillAfter, Bytes: 2000})
	// Push well past the budget; the relay must forward exactly 2000 more
	// bytes and then RST everything.
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := c.Write(make([]byte, 1000)); err != nil {
				return
			}
		}
	}()
	select {
	case n := <-received:
		if n != 3000 {
			t.Fatalf("server received %d bytes, want exactly 3000 (1000 + 2000 budget)", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("kill never fired")
	}
}

func TestHalfCloseIsDirectional(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvGot := make(chan []byte, 1)
	go func() {
		s, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		n, _ := s.Read(buf)
		srvGot <- buf[:n]
		// Keep the server->client direction quiet; the test only needs
		// the client to observe EOF while its writes still flow.
		time.Sleep(2 * time.Second)
		s.Close()
	}()

	r, err := NewRelay(ln.Addr().String(), Profile{}, Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	<-srvGot
	r.Run(fault.Fault{Kind: fault.HalfClose})
	// Client sees EOF: the server "stopped sending".
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after half-close = %v, want io.EOF", err)
	}
	// But client->server still flows.
	go func() {
		s2, err := net.Dial("tcp", r.Addr()) // unrelated; keeps Accept loop sane
		if err == nil {
			s2.Close()
		}
	}()
	if _, err := c.Write([]byte("post")); err != nil {
		t.Fatalf("client->server direction died with the half-close: %v", err)
	}
}

func TestRunOrdersEndsAndAborts(t *testing.T) {
	addr := startEcho(t)
	r, err := NewRelay(addr, Profile{}, Profile{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("x"))
	io.ReadFull(c, make([]byte, 1))

	// A blackhole at 30ms that ends at 80ms, and a stall given out of
	// order that ends before the blackhole does.
	done, err := r.Run(
		fault.Fault{At: 40 * time.Millisecond, Kind: fault.Stall, Dur: 10 * time.Millisecond},
		fault.Fault{At: 30 * time.Millisecond, Kind: fault.Blackhole, Dur: 50 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("schedule never finished")
	}
	// After the script, the relay must be restored: new dials work.
	c2, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	go c2.Write([]byte("ok"))
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c2, make([]byte, 2)); err != nil {
		t.Fatalf("relay not restored after schedule: %v", err)
	}
	// And the original conn died during the blackhole window.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("old connection survived the scheduled blackhole")
	}

	// A pending schedule aborts when the relay closes.
	done2, _ := r.Run(fault.Fault{At: time.Hour, Kind: fault.RST})
	r.Close()
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		t.Fatal("schedule did not abort on relay close")
	}
}

// TestRunRefusesWhatARelayCannotExpress: a schedule holding a kind that
// needs a session's view is refused whole, naming the kind, before any
// of its faults is applied.
func TestRunRefusesWhatARelayCannotExpress(t *testing.T) {
	addr := startEcho(t)
	r, err := NewRelay(addr, Profile{}, Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = r.Run(fault.Fault{Kind: fault.RST}, fault.Fault{At: time.Second, Kind: fault.DataStall, Dur: time.Second})
	var un *fault.Unsupported
	if !errors.As(err, &un) || un.Kind != fault.DataStall {
		t.Fatalf("err %v, want *fault.Unsupported naming data_stall", err)
	}
	go c.Write([]byte("ok"))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, 2)); err != nil {
		t.Fatalf("the refused schedule's RST was applied: %v", err)
	}
}
