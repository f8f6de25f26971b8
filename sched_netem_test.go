// Scheduler integration tests over emulated asymmetric paths: a coupled
// download spread across two netem-shaped relays, with the server-side
// record scheduler selected by Config.Scheduler: the path-scheduler
// ablation, checked as a test.
package tcpls_test

import (
	"context"
	"net"
	"testing"
	"time"

	"tcpls"
	"tcpls/internal/netem"
)

// smallBufListener caps the send buffer of accepted connections so the
// sender feels TCP backpressure after tens of KB instead of after the
// kernel autotunes megabytes of slack. Without it the whole transfer is
// scheduled into socket buffers before the first ACK-derived metric
// arrives, and every scheduler degenerates to its cold-start split.
type smallBufListener struct {
	net.Listener
}

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(16 << 10)
		}
	}
	return c, err
}

// schedTransfer downloads total bytes over two netem paths (the initial
// connection through pathA, a joined connection through pathB) with the
// named scheduler driving the server's coupled-record placement, and
// returns the receiver-measured goodput in bits per second.
//
// Failover-mode record acknowledgments are enabled on both sides so the
// path-metrics engine sees RTT and delivery-rate samples; small records,
// a short ACK period, shallow relay queues, and capped socket buffers
// keep the feedback loop tight enough that a metrics-driven scheduler
// can act on what it learns mid-transfer. The client confirms delivery
// on a dedicated (uncoupled) stream before the server closes, so no
// shaped bytes are still in flight when the session tears down.
func schedTransfer(tb testing.TB, scheduler string, total int, pathA, pathB netem.Profile) float64 {
	tb.Helper()
	cert, err := tcpls.NewCertificate("sched.test")
	if err != nil {
		tb.Fatal(err)
	}
	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	ln := tcpls.NewListener(smallBufListener{rawLn}, &tcpls.Config{
		Certificate:      cert,
		EnableFailover:   true,
		AckPeriod:        2,
		MaxRecordPayload: 2048,
		Scheduler:        scheduler,
	})
	defer ln.Close()

	go func() {
		sess, err := ln.Accept()
		if err != nil {
			return
		}
		defer sess.Close()
		// Wait for both coupled streams before sending so every record
		// has the full path choice.
		for i := 0; i < 2; i++ {
			st, err := sess.AcceptStream(context.Background())
			if err != nil {
				return
			}
			one := make([]byte, 1)
			if _, err := st.Read(one); err != nil {
				return
			}
			if err := sess.Couple(st); err != nil {
				return
			}
		}
		chunk := make([]byte, 8<<10)
		for sent := 0; sent < total; {
			n := min(len(chunk), total-sent)
			if _, err := sess.WriteCoupled(chunk[:n]); err != nil {
				return
			}
			sent += n
		}
		// Hold the session open until the client confirms delivery on
		// its uncoupled signal stream.
		done, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		done.Read(make([]byte, 1))
	}()

	mk := func(p netem.Profile) *netem.Relay {
		r, err := netem.NewRelay(rawLn.Addr().String(), p, p)
		if err != nil {
			tb.Fatal(err)
		}
		return r
	}
	relayA, relayB := mk(pathA), mk(pathB)
	defer relayA.Close()
	defer relayB.Close()

	sess, err := tcpls.Dial("tcp", relayA.Addr(), &tcpls.Config{
		ServerName:     "sched.test",
		EnableFailover: true,
		AckPeriod:      2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer sess.Close()

	st1, err := sess.OpenStream()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st1.Write([]byte("A")); err != nil {
		tb.Fatal(err)
	}
	conn2, err := sess.JoinPath("tcp", relayB.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	st2, err := sess.OpenStreamOn(conn2)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st2.Write([]byte("B")); err != nil {
		tb.Fatal(err)
	}

	start := time.Now()
	buf := make([]byte, 64<<10)
	received := 0
	for received < total {
		n, err := sess.ReadCoupled(buf)
		if err != nil {
			tb.Fatal(err)
		}
		received += n
	}
	elapsed := time.Since(start)
	if done, err := sess.OpenStream(); err == nil {
		done.Write([]byte("K")) // release the server
	}
	return float64(received) * 8 / elapsed.Seconds()
}

// shallowQueue returns p with a two-chunk bottleneck queue, the shallow
// buffering the scheduler tests need for prompt backpressure.
func shallowQueue(p netem.Profile) netem.Profile {
	p.QueueLen = 2
	return p
}

// TestWeightedRateBeatsRoundRobinOnAsymmetricPaths is the acceptance
// check for the rate-weighted scheduler: over a 20 Mbps + 2 Mbps pair,
// round-robin is pinned to twice the slow path's rate (each record
// alternates, in-order delivery waits for the slow half), while the
// rate scheduler learns the asymmetry from ACK-derived delivery rates
// and shifts records to the fast path mid-transfer.
func TestWeightedRateBeatsRoundRobinOnAsymmetricPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second netem transfer")
	}
	const total = 2 << 20
	fast := shallowQueue(netem.Profile{RateBps: 20_000_000, Delay: 5 * time.Millisecond})
	slow := shallowQueue(netem.Profile{RateBps: 2_000_000, Delay: 5 * time.Millisecond})

	rr := schedTransfer(t, "roundrobin", total, fast, slow)
	wr := schedTransfer(t, "rate", total, fast, slow)
	t.Logf("goodput: roundrobin %.1f Mbps, weightedrate %.1f Mbps", rr/1e6, wr/1e6)
	if wr <= rr {
		t.Fatalf("weightedrate goodput %.1f Mbps not above roundrobin %.1f Mbps", wr/1e6, rr/1e6)
	}
}

// TestRedundantSchedulerOverNetem exercises the duplicate-everywhere
// policy end to end: the receiver must dedupe the per-path copies via
// the aggregation-sequence reorder buffer and deliver exactly total
// bytes.
func TestRedundantSchedulerOverNetem(t *testing.T) {
	if testing.Short() {
		t.Skip("netem transfer")
	}
	const total = 256 << 10
	p := netem.Profile{RateBps: 40_000_000, Delay: 2 * time.Millisecond}
	bps := schedTransfer(t, "redundant", total, p, p)
	if bps <= 0 {
		t.Fatal("no goodput")
	}
}
