package tcpls

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startServer spins a listener with a handler invoked per session.
func startServer(t *testing.T, cfg *Config, handler func(*Session)) *Listener {
	t.Helper()
	if cfg.Certificate == nil {
		cert, err := NewCertificate("test.server")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Certificate = cert
	}
	ln, err := Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			sess, err := ln.Accept()
			if err != nil {
				return
			}
			go handler(sess)
		}
	}()
	return ln
}

func echoHandler(sess *Session) {
	for {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		go func() {
			io.Copy(st, st)
			st.Close()
		}()
	}
}

func TestDialEchoRoundTrip(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("ping over tcpls")
	if _, err := st.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo mismatch: %q", buf)
	}
}

// TestDialHonoursHandshakeDeadline: a server that accepts and never
// answers costs Dial its HandshakeTimeout, once for the TCPLS attempt and
// once for the plain-TLS retry, and no more. Dial returns a timeout
// error, each socket it opened is closed, and no goroutine is left.
func TestDialHonoursHandshakeDeadline(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := raw.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	base := runtime.NumGoroutine()
	const timeout = 300 * time.Millisecond
	start := time.Now()
	_, err = Dial("tcp", raw.Addr().String(), &Config{ServerName: "test.server", HandshakeTimeout: timeout})
	took := time.Since(start)
	var ne net.Error
	if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Dial to a silent server: %v, want a timeout", err)
	}
	if took > 2*timeout+time.Second {
		t.Fatalf("Dial returned after %v with a %v handshake timeout", took, timeout)
	}
	for i := 0; i < 2; i++ {
		select {
		case c := <-accepted:
			c.SetReadDeadline(time.Now().Add(3 * time.Second))
			if _, err := io.Copy(io.Discard, c); err != nil {
				t.Fatalf("attempt %d: the client's socket was not closed: %v", i+1, err)
			}
			c.Close()
		case <-time.After(3 * time.Second):
			t.Fatalf("the server saw %d connections, want 2", i)
		}
	}
	checkGoroutines(t, base)
}

func TestBulkTransfer(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	st, _ := sess.OpenStream()
	data := make([]byte, 4<<20) // 4 MiB
	rand.Read(data)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st.Write(data)
		st.Close()
	}()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !bytes.Equal(got, data) {
		t.Fatal("bulk data corrupted")
	}
}

func TestMultipleStreamsConcurrently(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := sess.OpenStream()
			if err != nil {
				t.Error(err)
				return
			}
			msg := bytes.Repeat([]byte{byte('a' + i)}, 10000+i*1000)
			st.Write(msg)
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(st, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("stream %d corrupted", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestStreamEOFAfterClose(t *testing.T) {
	ln := startServer(t, &Config{}, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		st.Write([]byte("done"))
		st.Close()
	})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, _ := sess.OpenStream()
	st.Write([]byte("x")) // ensure server accepts the stream
	data, err := io.ReadAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "done" {
		t.Fatalf("got %q", data)
	}
}

// TestAcceptStreamWakes: AcceptStream sleeps on a condition of its own,
// so each event that ends its wait must signal that condition: a stream
// the peer opens, Close, the peer's goodbye, and the end of its context.
func TestAcceptStreamWakes(t *testing.T) {
	cases := []struct {
		name    string
		trigger func(cli, srv *Session, cancel context.CancelFunc)
		wantErr bool
	}{
		{"peer stream", func(cli, _ *Session, _ context.CancelFunc) {
			if st, err := cli.OpenStream(); err != nil {
				t.Error(err)
			} else if _, err := st.Write([]byte{1}); err != nil {
				t.Error(err)
			}
		}, false},
		{"close", func(_, srv *Session, _ context.CancelFunc) { srv.Close() }, true},
		{"peer goodbye", func(cli, _ *Session, _ context.CancelFunc) { cli.Close() }, true},
		{"ctx cancelled", func(_, _ *Session, cancel context.CancelFunc) { cancel() }, true},
	}
	srvCh := make(chan *Session, 1)
	ln := startServer(t, &Config{}, func(sess *Session) { srvCh <- sess })
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			srv := <-srvCh
			defer srv.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type accepted struct {
				st  *Stream
				err error
			}
			res := make(chan accepted, 1)
			go func() {
				st, err := srv.AcceptStream(ctx)
				res <- accepted{st, err}
			}()
			select {
			case r := <-res:
				t.Fatalf("AcceptStream returned before the trigger: %v, %v", r.st, r.err)
			case <-time.After(50 * time.Millisecond): // parked
			}
			tc.trigger(cli, srv, cancel)
			select {
			case r := <-res:
				if gotErr := r.err != nil; gotErr != tc.wantErr || !gotErr && r.st == nil {
					t.Fatalf("AcceptStream returned %v, %v", r.st, r.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("AcceptStream still parked 5 s after the trigger")
			}
		})
	}
}

func TestPlainTLSFallback(t *testing.T) {
	// Server with TCPLS disabled: client falls back, streams unavailable
	// beyond the implicit session, JoinPath refuses.
	ln := startServer(t, &Config{DisableTCPLS: true}, func(sess *Session) {})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err != ErrNotTCPLS {
		t.Fatalf("JoinPath err=%v, want ErrNotTCPLS", err)
	}
}

func TestJoinPathAndSteering(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if sess.Cookies() != 2 {
		t.Fatalf("cookies = %d, want 2", sess.Cookies())
	}
	conn2, err := sess.JoinPath("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Cookies() != 1 {
		t.Errorf("cookies after join = %d", sess.Cookies())
	}
	if got := len(sess.Connections()); got != 2 {
		t.Fatalf("connections = %d", got)
	}

	// Steer a stream onto the joined connection and verify data flows.
	st, err := sess.OpenStreamOn(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := st.Conn(); c != conn2 {
		t.Errorf("stream on conn %d, want %d", c, conn2)
	}
	msg := []byte("steered onto path 2")
	st.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("steered stream corrupted")
	}
}

func TestJoinBudgetExhaustionAndReplenish(t *testing.T) {
	serverCh := make(chan *Session, 1)
	ln := startServer(t, &Config{NumCookies: 1}, func(sess *Session) {
		serverCh <- sess
		echoHandler(sess)
	})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := <-serverCh

	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err != ErrNoCookies {
		t.Fatalf("err=%v, want ErrNoCookies", err)
	}

	// Server replenishes; client can join again.
	if err := srv.IssueCookies(0, 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sess.Cookies() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if sess.Cookies() == 0 {
		t.Fatal("replenished cookies never arrived")
	}
	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err != nil {
		t.Fatalf("join after replenish: %v", err)
	}
}

func TestCoupledAggregationOverTwoPaths(t *testing.T) {
	recvCh := make(chan []byte, 1)
	ln := startServer(t, &Config{}, func(sess *Session) {
		// Accept both streams, then read the coupled aggregate.
		sess.AcceptStream(context.Background())
		sess.AcceptStream(context.Background())
		var data []byte
		buf := make([]byte, 64<<10)
		for len(data) < 1<<20 {
			n, err := sess.ReadCoupled(buf)
			if err != nil {
				return
			}
			data = append(data, buf[:n]...)
		}
		recvCh <- data
	})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	conn2, err := sess.JoinPath("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := sess.OpenStream()
	st2, err := sess.OpenStreamOn(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Couple(st1, st2); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<20)
	rand.Read(data)
	if _, err := sess.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recvCh:
		if !bytes.Equal(got, data) {
			t.Fatal("coupled aggregate corrupted or out of order")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coupled receive timed out")
	}
}

func TestEncryptedTCPOption(t *testing.T) {
	serverCh := make(chan *Session, 1)
	ln := startServer(t, &Config{}, func(sess *Session) {
		serverCh <- sess
	})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := <-serverCh
	if err := sess.SendTCPOption(0, OptUserTimeout, []byte{0, 0, 0, 250}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if opts := srv.TCPOptions(); len(opts) > 0 {
			if opts[0].Kind != OptUserTimeout || !bytes.Equal(opts[0].Value, []byte{0, 0, 0, 250}) {
				t.Fatalf("option %+v", opts[0])
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("TCP option never arrived")
}

func TestPingMeasuresRTT(t *testing.T) {
	ln := startServer(t, &Config{}, func(sess *Session) {})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rtt, err := sess.Ping(0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Fatalf("implausible loopback rtt %v", rtt)
	}
}

func TestBPFProgramDelivery(t *testing.T) {
	serverCh := make(chan *Session, 1)
	ln := startServer(t, &Config{}, func(sess *Session) { serverCh <- sess })
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := <-serverCh

	prog := make([]byte, 100000) // forces multi-record chunking
	rand.Read(prog)
	if err := srv.SendBPFCC(0, prog); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := sess.ReceiveBPFCC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prog) {
		t.Fatal("bpf program corrupted in transit")
	}
}

func TestFailoverAcrossRealConnections(t *testing.T) {
	cfg := &Config{EnableFailover: true, AckPeriod: 4}
	recvCh := make(chan []byte, 1)
	ln := startServer(t, cfg, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		data, err := io.ReadAll(st)
		if err != nil {
			return
		}
		recvCh <- data
	})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Two paths up front; kill the one carrying the stream mid-transfer.
	conn2, err := sess.JoinPath("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = conn2
	st, _ := sess.OpenStream()
	phase1 := bytes.Repeat([]byte{1}, 200000)
	if _, err := st.Write(phase1); err != nil {
		t.Fatal(err)
	}

	// Hard-kill the initial TCP connection: readLoop reports failure,
	// auto-failover replays unacked records onto conn2.
	sess.mu.Lock()
	pc0 := sess.pathConnLocked(0)
	sess.mu.Unlock()
	pc0.nc.Close()

	phase2 := bytes.Repeat([]byte{2}, 200000)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := st.Write(phase2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never recovered onto the joined path")
		}
		time.Sleep(20 * time.Millisecond)
	}
	st.Close()

	select {
	case got := <-recvCh:
		want := append(append([]byte(nil), phase1...), phase2...)
		if !bytes.Equal(got, want) {
			t.Fatalf("failover transfer corrupted: got %d bytes want %d", len(got), len(want))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never finished reading after failover")
	}
}
