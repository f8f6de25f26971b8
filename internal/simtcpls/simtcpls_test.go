package simtcpls

import (
	"bytes"
	"testing"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/health"
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
