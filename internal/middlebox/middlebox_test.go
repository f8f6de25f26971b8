package middlebox_test

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"io"
	"testing"
	"time"

	"tcpls"
	"tcpls/internal/fault"
	"tcpls/internal/middlebox"
	"tcpls/internal/netem"
)

// startEchoServer runs a TCPLS echo server and returns its address and
// certificate.
func startEchoServer(t *testing.T) (string, *tcpls.Certificate) {
	t.Helper()
	cert, err := tcpls.NewCertificate("real.server")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tcpls.Listen("tcp", "127.0.0.1:0", &tcpls.Config{Certificate: cert})
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
			go func() {
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
			}()
		}
	}()
	return ln.Addr().String(), cert
}

// startRelay runs a netem relay toward addr with the given direction
// profiles and faults in force, closed when the test ends.
func startRelay(t *testing.T, addr string, c2s, s2c netem.Profile, faults ...fault.Fault) *netem.Relay {
	t.Helper()
	relay, err := netem.NewRelay(addr, c2s, s2c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	if _, err := relay.Run(faults...); err != nil {
		t.Fatal(err)
	}
	return relay
}

// echoThrough dials via addr and verifies an echo round trip.
func echoThrough(t *testing.T, addr string, cfg *tcpls.Config) *tcpls.Session {
	t.Helper()
	sess, err := tcpls.Dial("tcp", addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("tcpls through a middlebox "), 2000)
	go st.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo corrupted")
	}
	return sess
}

func TestThroughNAT(t *testing.T) {
	addr, _ := startEchoServer(t)
	relay := startRelay(t, addr, netem.Profile{}, netem.Profile{})
	// Plain relay = NAT: payload untouched, addresses rewritten below
	// the byte-stream layer. TCPLS must work unchanged.
	echoThrough(t, relay.Addr(), &tcpls.Config{ServerName: "real.server"})
}

func TestThroughResegmenter(t *testing.T) {
	addr, _ := startEchoServer(t)
	relay := startRelay(t, addr, netem.Profile{}, netem.Profile{},
		fault.Fault{Kind: fault.Resegment, Dir: fault.Up, Bytes: 3},
		fault.Fault{Kind: fault.Resegment, Dir: fault.Down})
	echoThrough(t, relay.Addr(), &tcpls.Config{ServerName: "real.server"})
}

func TestThroughDelayingProxy(t *testing.T) {
	addr, _ := startEchoServer(t)
	delay := netem.Profile{Delay: 2 * time.Millisecond}
	relay := startRelay(t, addr, delay, delay)
	sess := echoThrough(t, relay.Addr(), &tcpls.Config{ServerName: "real.server"})
	rtt, err := sess.Ping(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 4*time.Millisecond {
		t.Errorf("rtt %v too low through a 2x2ms delaying proxy", rtt)
	}
}

func TestCorruptingALGIsDetected(t *testing.T) {
	addr, _ := startEchoServer(t)
	// Corrupt application-phase bytes. The AEAD must reject them: the
	// client either fails the handshake or the session dies — it must
	// never deliver corrupted data.
	relay := startRelay(t, addr, netem.Profile{}, netem.Profile{},
		fault.Fault{Kind: fault.Corrupt, Dir: fault.Down, Bytes: 50_000})

	sess, err := tcpls.Dial("tcp", relay.Addr(), &tcpls.Config{ServerName: "real.server"})
	if err != nil {
		return // corrupted handshake: failure is the correct outcome
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		return
	}
	msg := bytes.Repeat([]byte("integrity"), 30000)
	go st.Write(msg)

	type outcome struct {
		completed bool
		corrupted bool
	}
	res := make(chan outcome, 1)
	go func() {
		got := make([]byte, 0, len(msg))
		buf := make([]byte, 4096)
		for len(got) < len(msg) {
			n, err := st.Read(buf)
			got = append(got, buf[:n]...)
			if !bytes.Equal(got, msg[:len(got)]) {
				res <- outcome{corrupted: true}
				return
			}
			if err != nil {
				res <- outcome{} // session failed: correct
				return
			}
		}
		res <- outcome{completed: true}
	}()
	select {
	case o := <-res:
		if o.corrupted {
			t.Fatal("corrupted data delivered to the application")
		}
		if o.completed {
			t.Fatal("transfer succeeded despite corruption — mangler ineffective?")
		}
		// Session died cleanly: the AEAD rejected the corruption.
	case <-time.After(5 * time.Second):
		// Stalled: deframer desynchronized or records dropped — the
		// session is dead without delivering corrupt data. Correct.
	}
}

func TestExtensionFilteringFirewallForcesFallback(t *testing.T) {
	addr, _ := startEchoServer(t)
	relay := startRelay(t, addr, netem.Profile{}, netem.Profile{}, fault.Fault{Kind: fault.RejectHello})

	// Dial retries as plain TLS after the firewall kills the TCPLS
	// attempt (paper §5.2's explicit fallback).
	sess, err := tcpls.Dial("tcp", relay.Addr(), &tcpls.Config{ServerName: "real.server"})
	if err != nil {
		t.Fatalf("fallback dial failed: %v", err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", relay.Addr()); err != tcpls.ErrNotTCPLS {
		t.Errorf("JoinPath err=%v, want ErrNotTCPLS after fallback", err)
	}
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("plain tls fallback data")
	go st.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("fallback echo corrupted")
	}
}

func TestTLSTerminatingProxyStripsTCPLS(t *testing.T) {
	addr, _ := startEchoServer(t)
	proxy, err := middlebox.NewTLSTerminator(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Client without pinning: handshake completes against the proxy,
	// TCPLS is silently unavailable (implicit fallback), data flows.
	sess, err := tcpls.Dial("tcp", proxy.Addr(), &tcpls.Config{})
	if err != nil {
		t.Fatalf("dial through terminator: %v", err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", proxy.Addr()); err != tcpls.ErrNotTCPLS {
		t.Errorf("JoinPath err=%v, want ErrNotTCPLS through terminator", err)
	}
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("terminated but relayed")
	go st.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("relay corrupted data")
	}
	if proxy.Sessions() == 0 {
		t.Error("proxy reports no terminated sessions")
	}
}

func TestTLSTerminatingProxyDetectedByPinning(t *testing.T) {
	addr, realCert := startEchoServer(t)
	proxy, err := middlebox.NewTLSTerminator(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// A client pinning the real server's key must reject the proxy.
	_, err = tcpls.Dial("tcp", proxy.Addr(), &tcpls.Config{
		RootKeys: []ed25519.PublicKey{realCert.Public},
	})
	if err == nil {
		t.Fatal("pinning client accepted the terminating proxy")
	}
}

func TestStallingProxyMidRecord(t *testing.T) {
	addr, _ := startEchoServer(t)
	// Stall the relay for 300ms while the echo is in flight at 4 Mbps: the
	// stall lands mid-record. The deframer must resume cleanly and the
	// echo must still be byte-exact.
	shaped := netem.Profile{RateBps: 4_000_000}
	relay := startRelay(t, addr, shaped, shaped)
	sess, err := tcpls.Dial("tcp", relay.Addr(), &tcpls.Config{ServerName: "real.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("tcpls through a middlebox "), 2000)
	start := time.Now()
	go st.Write(msg)
	if _, err := relay.Run(fault.Fault{At: 20 * time.Millisecond, Kind: fault.Stall, Dur: 300 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(st, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("echo across the stall: %v, byte-exact %v", err, bytes.Equal(got, msg))
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Errorf("echo finished in %v; the 300ms stall never applied", elapsed)
	}
}

func TestAbortingProxyKillsMidTransfer(t *testing.T) {
	addr, _ := startEchoServer(t)
	relay := startRelay(t, addr, netem.Profile{}, netem.Profile{})
	sess, err := tcpls.Dial("tcp", relay.Addr(), &tcpls.Config{ServerName: "real.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Cut the connection after 4 KB more ciphertext — past the
	// handshake, mid-transfer, typically mid-record.
	relay.Run(fault.Fault{Kind: fault.KillAfter, Bytes: 4096})
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("doomed "), 4000) // ~28 KB, crosses the cut
	go st.Write(msg)
	got := make([]byte, len(msg))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(st, got)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("full echo crossed a connection aborted mid-transfer")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client never noticed the abort")
	}
}
