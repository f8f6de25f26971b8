package simtcpls

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/driver"
	"tcpls/internal/fault"
	"tcpls/internal/handshake"
	"tcpls/internal/health"
	"tcpls/internal/resume"
	"tcpls/internal/sim"
	"tcpls/internal/simtcp"
	"tcpls/internal/telemetry"
)

func mbps(n int64) int64 { return n * 1_000_000 }

func TestStreamTransferOverSimulatedTCP(t *testing.T) {
	s := sim.New()
	client, server := Pair(s, core.Config{})
	path := sim.NewPath(s, mbps(25), 5*time.Millisecond)

	var got []byte
	server.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventStreamData {
			buf := make([]byte, 64<<10)
			for server.Sess.Readable(ev.Stream) > 0 {
				n, _ := server.Sess.Read(ev.Stream, buf)
				got = append(got, buf[:n]...)
			}
		}
	}
	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = byte(i * 3)
	}
	client.AddPath(path, 0, simtcp.Options{CC: "cubic"}, func() {
		sid, err := client.Sess.CreateStream(0)
		if err != nil {
			t.Fatal(err)
		}
		client.Write(sid, data)
	})
	s.RunUntil(20 * time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("received %d of %d bytes", len(got), len(data))
	}
}

func TestFailoverAcrossSimulatedPaths(t *testing.T) {
	s := sim.New()
	cfg := core.Config{EnableFailover: true, AckPeriod: 8, UserTimeout: 250 * time.Millisecond}
	client, server := Pair(s, cfg)
	p0 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)

	var got int
	client.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventStreamData {
			buf := make([]byte, 64<<10)
			for client.Sess.Readable(ev.Stream) > 0 {
				n, _ := client.Sess.Read(ev.Stream, buf)
				got += n
			}
		}
	}
	size := 8 << 20
	// Server pushes a download to the client over conn 0; conn 1 is a
	// standby path joined up front.
	client.AddPath(p0, 0, simtcp.Options{}, func() {
		client.AddPath(p1, 1, simtcp.Options{}, nil)
		sid, _ := server.Sess.CreateStream(0)
		server.Write(sid, make([]byte, size))
	})
	// Blackhole the primary mid-transfer.
	s.After(2*time.Second, func() { p0.SetDown(true) })
	s.RunUntil(60 * time.Second)
	if got != size {
		t.Fatalf("client received %d of %d after blackhole failover", got, size)
	}
	if server.Sess.Stats().Retransmits == 0 {
		t.Error("no TCPLS-level record retransmissions")
	}
}

// TestServerPushOnDeadPathReachesClient: the server opens a stream on a
// path that is already blackholed, so the client never sees its ATTACH
// and has nothing of its own there to fail over. Only the server's user
// timeout sees the failure; its notice makes the client choose a target
// and say so, and the server re-homes the stream there.
func TestServerPushOnDeadPathReachesClient(t *testing.T) {
	s := sim.New()
	cfg := core.Config{EnableFailover: true, UserTimeout: 250 * time.Millisecond}
	client, server := Pair(s, cfg)
	p0 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)

	var got []byte
	client.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventStreamData {
			buf := make([]byte, 64<<10)
			for client.Sess.Readable(ev.Stream) > 0 {
				n, _ := client.Sess.Read(ev.Stream, buf)
				got = append(got, buf[:n]...)
			}
		}
	}
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	client.AddPath(p0, 0, simtcp.Options{}, func() {
		client.AddPath(p1, 1, simtcp.Options{}, func() {
			p0.SetDown(true)
			sid, err := server.Sess.CreateStream(0)
			if err != nil {
				t.Fatal(err)
			}
			server.Write(sid, data)
		})
	})
	s.RunUntil(10 * time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("client received %d of %d bytes pushed onto the dead path", len(got), len(data))
	}
}

func TestCoupledAggregationOverTwoSimulatedPaths(t *testing.T) {
	s := sim.New()
	client, server := Pair(s, core.Config{MaxRecordPayload: 16368})
	p0 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)

	var got int
	var doneAt sim.Time
	size := 30 << 20
	client.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventCoupledData {
			buf := make([]byte, 128<<10)
			for client.Sess.CoupledReadable() > 0 {
				got += client.Sess.ReadCoupled(buf)
			}
			if got >= size && doneAt == 0 {
				doneAt = s.Now()
			}
		}
	}
	client.AddPath(p0, 0, simtcp.Options{CC: "cubic"}, func() {
		s1, _ := server.Sess.CreateStream(0)
		server.Sess.SetCoupled(s1, true)
		client.AddPath(p1, 1, simtcp.Options{CC: "cubic"}, func() {
			s2, _ := server.Sess.CreateStream(1)
			server.Sess.SetCoupled(s2, true)
			server.WriteCoupled(make([]byte, size))
		})
	})
	s.RunUntil(30 * time.Second)
	if got < size {
		t.Fatalf("received %d of %d", got, size)
	}
	// Two 25 Mbps paths: the transfer must beat a single path's floor.
	singlePathTime := time.Duration(float64(size*8) / 25e6 * float64(time.Second))
	if doneAt >= singlePathTime {
		t.Errorf("aggregated transfer took %v, single path needs %v: no aggregation benefit", doneAt, singlePathTime)
	}
	if p0.AtoB.BytesSent == 0 || p1.AtoB.BytesSent == 0 {
		t.Error("a path carried nothing")
	}
	// Paper Fig. 11: roughly even split under round robin.
	lo, hi := p0.BtoA.BytesSent, p1.BtoA.BytesSent
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo*3 < hi {
		t.Errorf("imbalanced coupling: %d vs %d", p0.BtoA.BytesSent, p1.BtoA.BytesSent)
	}
}

func TestUserTimeoutDetectsBlackhole(t *testing.T) {
	s := sim.New()
	cfg := core.Config{EnableFailover: true, UserTimeout: 250 * time.Millisecond}
	client, server := Pair(s, cfg)
	p0 := sim.NewPath(s, mbps(25), 5*time.Millisecond)

	var failedAt sim.Time
	client.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventConnFailed && failedAt == 0 {
			failedAt = s.Now()
		}
	}
	client.AddPath(p0, 0, simtcp.Options{}, func() {
		sid, _ := server.Sess.CreateStream(0)
		server.Write(sid, make([]byte, 4<<20))
	})
	s.After(time.Second, func() { p0.SetDown(true) })
	s.RunUntil(5 * time.Second)
	if failedAt == 0 {
		t.Fatal("user timeout never fired")
	}
	// Detection = outage + UTO (plus one tick of slack).
	if failedAt < time.Second+250*time.Millisecond || failedAt > time.Second+500*time.Millisecond {
		t.Errorf("blackhole detected at %v, want ~1.25-1.5s", failedAt)
	}
}

func TestBPFProgramOverSimulatedSession(t *testing.T) {
	s := sim.New()
	client, server := Pair(s, core.Config{})
	p0 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	prog := bytes.Repeat([]byte{0xaa}, 60000)
	var got []byte
	client.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventBPFCC {
			got = ev.Data
		}
	}
	client.AddPath(p0, 0, simtcp.Options{}, func() {
		server.Sess.SendBPFCC(0, prog)
		server.Flush()
	})
	s.RunUntil(5 * time.Second)
	if !bytes.Equal(got, prog) {
		t.Fatalf("program corrupted: got %d bytes", len(got))
	}
}

// TestDegradedPathRaisesAsymmetry: a health monitor over a bare engine
// sees each connection's counters, so a two-path transfer whose second
// path drops to a hundredth of its rate raises path_asymmetry on that
// path — the rule the fleet's diagnosis-fidelity invariant relies on.
func TestDegradedPathRaisesAsymmetry(t *testing.T) {
	s := sim.New()
	cfg := core.Config{EnableFailover: true, MaxRetransmitBytes: 256 << 10}
	client, server := Pair(s, cfg)
	p0 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	client.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventStreamData {
			buf := make([]byte, 64<<10)
			for client.Sess.Readable(ev.Stream) > 0 {
				client.Sess.Read(ev.Stream, buf)
			}
		}
	}
	client.AddPath(p0, 0, simtcp.Options{}, func() {
		client.AddPath(p1, 1, simtcp.Options{}, func() {
			p1.BtoA.SetRateBps(mbps(25) / 100)
			for conn := uint32(0); conn < 2; conn++ {
				sid, _ := server.Sess.CreateStream(conn)
				server.Write(sid, make([]byte, 32<<20))
			}
		})
	})

	var raised []health.Verdict
	mon := health.NewMonitor(engineSource{server.Sess}, health.Options{
		Key:      "server",
		Interval: 100 * time.Millisecond,
		Window:   16,
		OnVerdict: func(v health.Verdict) {
			if v.Raised {
				raised = append(raised, v)
			}
		},
	})
	var poll func()
	poll = func() {
		mon.Poll(epoch.Add(s.Now()))
		s.After(100*time.Millisecond, poll)
	}
	s.After(100*time.Millisecond, poll)
	s.RunUntil(5 * time.Second)

	for _, v := range raised {
		if v.Kind == health.PathAsymmetry && v.Conn == 1 {
			return
		}
	}
	t.Fatalf("no path_asymmetry on conn 1; verdicts raised: %+v", raised)
}

// engineSource hands a bare engine's snapshot to a health monitor.
type engineSource struct{ sess *core.Session }

func (e engineSource) HealthSample(snap *telemetry.Snapshot, _ *health.ProcessCounters) {
	e.sess.Snapshot(snap)
}

// TestUnadoptedJoinResetAtItsDeadline: a join whose handshake ended but
// whose adoption probe is never answered — the path's return direction
// goes dark as the client sends its Finished — fails at the client's
// deadline, and the client resets its TCP connection, so the server's end
// fails too rather than keeping a connection the client gave up on.
func TestUnadoptedJoinResetAtItsDeadline(t *testing.T) {
	s := sim.New()
	client, server := Pair(s, core.Config{})
	p0 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	client.Paths = []*sim.Path{p1}
	const timeout = 100 * time.Millisecond
	var joined time.Duration
	client.OnStart = func(id uint32) {
		if id == 1 {
			joined = s.Now()
			p1.BtoA.Down = true
		}
	}
	client.AddPath(p0, 0, simtcp.Options{}, func() {
		client.DialTimeout = timeout
		if err := client.Join(0, false); err != nil {
			t.Fatal(err)
		}
	})
	s.RunUntil(time.Second)
	c := client.D.Conn(1)
	if joined == 0 || c == nil || c.State != driver.Failed || !errors.Is(c.Err, driver.ErrDeadline) {
		t.Fatalf("join started at %v, conn %+v: want it failed at its deadline", joined, c)
	}
	if tc := client.Conn(1); tc == nil || !tc.Failed() {
		t.Fatal("the client kept the join's TCP connection open past its deadline")
	}
	if sc := server.D.Conn(1); sc == nil || sc.State != driver.Failed {
		t.Fatalf("server's end %+v: want failed by the client's reset", sc)
	}
}

// TestFirstRequestByteOnTheVirtualClock runs the production connect path
// — the client's driver running each handshake, the server's acceptor —
// over one path of round-trip time R on the virtual clock. The client
// queues a request as its end starts the connection; the time from the
// connection's SYN until the server's application holds the request's
// first byte is 2.5R for a full handshake, a resumption and a join, and
// 1.5R for a fast join, whose records ride its hello. The line rate keeps
// serialization under a millisecond. 0-RTT is logged, not asserted: its
// bytes reach the server at 1.5R, and the server's application gets them
// with the acceptor's verdict, at the client's Finished.
func TestFirstRequestByteOnTheVirtualClock(t *testing.T) {
	const delay = 10 * time.Millisecond
	const rtt = 2 * delay
	req := []byte("GET /first HTTP/1.0\r\n\r\n")
	ks, err := resume.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	psk := bytes.Repeat([]byte{7}, 32)
	ticket, err := ks.SealAt(psk, epoch)
	if err != nil {
		t.Fatal(err)
	}
	// run opens a session and, for a join, a second connection (join:
	// 1 two-flight, 2 fast), and returns the time from the measured
	// connection's SYN to the server holding the request's first byte, and
	// to the server's 0-RTT verdict.
	run := func(resumed, early bool, join int) (first, verdict time.Duration) {
		s := sim.New()
		acc := NewAcceptor(handshake.AcceptorConfig{Keys: ks, Replay: resume.NewReplay(0, 0, epoch)})
		client, server := PairSupervised(s, core.Config{}, nil, 1, acc)
		if resumed {
			client.Handshake.PSK, client.Handshake.PSKTicket = psk, ticket
		}
		if early {
			client.Handshake.EarlyData = req
		}
		paths := []*sim.Path{sim.NewPath(s, mbps(1000), delay), sim.NewPath(s, mbps(1000), delay)}
		client.Paths = paths[1:]
		target := uint32(0)
		var start time.Duration
		if join > 0 {
			target = 1
		}
		client.OnStart = func(id uint32) {
			if id == target && !early {
				sid, err := client.Sess.CreateStream(id)
				if err != nil {
					t.Fatal(err)
				}
				client.Write(sid, req)
			}
		}
		server.OnVerdict = func(v handshake.Verdict) {
			if v.Early == handshake.EarlyAccepted {
				verdict = s.Now() - start
			}
		}
		server.OnEvent = func(ev core.Event) {
			if ev.Kind == core.EventStreamData && first == 0 {
				first = s.Now() - start
			}
		}
		client.AddPath(paths[0], 0, simtcp.Options{}, func() {
			if join > 0 {
				start = s.Now()
				if err := client.Join(0, join == 2); err != nil {
					t.Fatal(err)
				}
			}
		})
		s.RunUntil(time.Second)
		return first, verdict
	}
	for _, f := range []struct {
		name    string
		want    time.Duration
		resumed bool
		join    int
	}{
		{"full", 5 * rtt / 2, false, 0},
		{"resumed", 5 * rtt / 2, true, 0},
		{"join", 5 * rtt / 2, false, 1},
		{"fast join", 3 * rtt / 2, false, 2},
	} {
		got, _ := run(f.resumed, false, f.join)
		t.Logf("%s: first request byte at %v", f.name, got)
		if got < f.want || got >= f.want+time.Millisecond {
			t.Errorf("%s: first request byte at %v (%.2fR), want %v (%.1fR)", f.name, got, float64(got)/float64(rtt), f.want, float64(f.want)/float64(rtt))
		}
	}
	_, verdict := run(true, true, 0)
	if verdict == 0 {
		t.Fatal("0-RTT: the flight was not accepted")
	}
	t.Logf("0-RTT: the server's application gets the early bytes at %v (%.2fR)", verdict, float64(verdict)/float64(rtt))
}

// TestScheduleFileOnTheVirtualClock runs the schedule file the root's
// TestScheduleFileOverRelays runs over real sockets, with the client as
// the fault.Net: an RST on path 0 mid-transfer on a two-path session,
// which ends byte-exact after one failover onto path 1.
func TestScheduleFileOnTheVirtualClock(t *testing.T) {
	f, err := os.Open("../../testdata/rst-path0.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sched, err := fault.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	client, server := Pair(s, core.Config{EnableFailover: true, AckPeriod: 4})
	client.Paths = []*sim.Path{sim.NewPath(s, mbps(25), 10*time.Millisecond), sim.NewPath(s, mbps(25), 10*time.Millisecond)}
	var got []byte
	server.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventStreamData {
			buf := make([]byte, 64<<10)
			for server.Sess.Readable(ev.Stream) > 0 {
				n, _ := server.Sess.Read(ev.Stream, buf)
				got = append(got, buf[:n]...)
			}
		}
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	client.AddPath(client.Paths[0], 0, simtcp.Options{}, func() {
		client.AddPath(client.Paths[1], 1, simtcp.Options{}, func() {
			sid, err := client.Sess.CreateStream(0)
			if err != nil {
				t.Fatal(err)
			}
			client.Write(sid, data)
		})
	})
	if err := fault.Play(s, client, sched); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(20 * time.Second)
	var snap telemetry.Snapshot
	client.Sess.Snapshot(&snap)
	if !bytes.Equal(got, data) || snap.ConnFailures != 1 || snap.Failovers != 1 {
		t.Fatalf("received %d of %d bytes (byte-exact %v), %d conn failures, %d failovers; want all, 1, 1",
			len(got), len(data), bytes.Equal(got, data), snap.ConnFailures, snap.Failovers)
	}
}
