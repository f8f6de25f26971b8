package core

import (
	"bytes"
	"testing"
	"time"

	"tcpls/internal/sched"
)

// pinSched picks the same index for every record, in range or not: a
// pinned scheduler, or a broken one that exercises the sched_invalid
// fallback.
type pinSched int

func (pinSched) Name() string                        { return "pin" }
func (p pinSched) Pick(uint64, []sched.PathView) int { return int(p) }

// coupledPair builds a two-connection pair with one coupled stream per
// connection on the client side.
func coupledPair(t *testing.T, cfg Config) (*pair, []uint32) {
	t.Helper()
	p := newPair(t, cfg)
	p.addConn(1)
	s1, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.client.CreateStream(1)
	if err != nil {
		t.Fatal(err)
	}
	p.pump()
	p.client.SetCoupled(s1, true)
	p.client.SetCoupled(s2, true)
	return p, []uint32{s1, s2}
}

func TestRedundantSchedulerDeliversExactlyOnce(t *testing.T) {
	p, _ := coupledPair(t, Config{MaxRecordPayload: 1000})
	p.client.SetPathScheduler(sched.Redundant())

	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := p.client.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every record must appear on both connections.
	out0, _ := p.client.Outgoing(0)
	out1, _ := p.client.Outgoing(1)
	if len(out0) == 0 || len(out1) == 0 {
		t.Fatalf("redundant records not duplicated: conn0=%d conn1=%d bytes", len(out0), len(out1))
	}
	if err := p.server.Receive(0, out0, p.now); err != nil {
		t.Fatal(err)
	}
	if err := p.server.Receive(1, out1, p.now); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data)+1000)
	n := p.server.ReadCoupled(got)
	if n != len(data) || !bytes.Equal(got[:n], data) {
		t.Fatalf("coupled read %d bytes, want %d exactly once", n, len(data))
	}
	// 5 records duplicated on 2 paths were received, 5 delivered.
	if rec := p.server.Stats().RecordsReceived; rec < 10 {
		t.Fatalf("RecordsReceived = %d, want >= 10 (duplicates on the wire)", rec)
	}
}

func TestSchedInvalidTraceAndFallback(t *testing.T) {
	p, streams := coupledPair(t, Config{MaxRecordPayload: 1000})
	var events []TraceEvent
	p.client.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	// Deliberately broken scheduler: out-of-range index every time.
	p.client.SetPathScheduler(pinSched(99))

	data := make([]byte, 3000)
	if _, err := p.client.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}
	p.pump()

	var invalid, picks int
	for _, ev := range events {
		switch ev.Name {
		case "sched_invalid":
			invalid++
			if ev.Bytes != 99 {
				t.Fatalf("sched_invalid Bytes = %d, want the bad index 99", ev.Bytes)
			}
		case "sched_pick":
			picks++
			if ev.Stream != streams[0] {
				t.Fatalf("fallback picked stream %d, want first coupled stream %d", ev.Stream, streams[0])
			}
		}
	}
	if invalid != 3 || picks != 3 {
		t.Fatalf("events: %d sched_invalid, %d sched_pick; want 3 each", invalid, picks)
	}
	// Data still flows despite the broken scheduler.
	got := make([]byte, len(data))
	if n := p.server.ReadCoupled(got); n != len(data) {
		t.Fatalf("delivered %d bytes, want %d", n, len(data))
	}
}

func TestSchedPickTraceRoutesRecords(t *testing.T) {
	p, streams := coupledPair(t, Config{MaxRecordPayload: 1000})
	var picks []TraceEvent
	p.client.SetTracer(func(ev TraceEvent) {
		if ev.Name == "sched_pick" {
			picks = append(picks, ev)
		}
	})
	if _, err := p.client.WriteCoupled(make([]byte, 4000)); err != nil {
		t.Fatal(err)
	}
	p.pump()
	if len(picks) != 4 {
		t.Fatalf("sched_pick events = %d, want 4", len(picks))
	}
	// Default round-robin alternates the two coupled streams.
	for i, ev := range picks {
		if want := streams[i%2]; ev.Stream != want {
			t.Fatalf("pick %d on stream %d, want %d", i, ev.Stream, want)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("pick %d aggSeq = %d", i, ev.Seq)
		}
	}
}

func TestAckDrivenPathMetrics(t *testing.T) {
	cfg := Config{EnableFailover: true, AckPeriod: 1, MaxRecordPayload: 1000}
	p, _ := coupledPair(t, cfg)
	m := sched.NewMetrics()
	p.client.SetMetrics(m)
	base := p.now
	p.client.SetClock(func() time.Time { return base })

	if _, err := p.client.WriteCoupled(make([]byte, 4000)); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// The peer's acks arrive 30ms after the records were sealed.
	p.now = base.Add(30 * time.Millisecond)
	p.pump()

	for _, conn := range []uint32{0, 1} {
		st, ok := m.Snapshot(conn)
		if !ok {
			t.Fatalf("no metrics for conn %d", conn)
		}
		if !st.HasRTT || st.SRTT != 30*time.Millisecond {
			t.Fatalf("conn %d SRTT = %v (has=%v), want 30ms", conn, st.SRTT, st.HasRTT)
		}
		if st.InFlight != 0 {
			t.Fatalf("conn %d InFlight = %d after full ack", conn, st.InFlight)
		}
	}
}

func TestFailoverFeedsLossMetrics(t *testing.T) {
	cfg := Config{EnableFailover: true, AckPeriod: 1, MaxRecordPayload: 1000}
	p, _ := coupledPair(t, cfg)
	m := sched.NewMetrics()
	p.client.SetMetrics(m)

	if _, err := p.client.WriteCoupled(make([]byte, 4000)); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// Conn 0 dies with its records unacknowledged; they replay onto 1.
	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	st, ok := m.Snapshot(0)
	if !ok || st.Losses == 0 {
		t.Fatalf("failed conn losses = %+v, want > 0", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("failed conn still has %d bytes in flight", st.InFlight)
	}
	st1, _ := m.Snapshot(1)
	if st1.InFlight == 0 {
		t.Fatal("replayed bytes not in flight on target conn")
	}
	p.pump(0)
	// Acks from the server drain the target's flight.
	st1, _ = m.Snapshot(1)
	if st1.InFlight != 0 {
		t.Fatalf("target InFlight = %d after acks", st1.InFlight)
	}
}

func TestWeightedRateSchedulerRoutesByMeasuredRate(t *testing.T) {
	p, streams := coupledPair(t, Config{MaxRecordPayload: 1000})
	m := sched.NewMetrics()
	p.client.SetMetrics(m)
	p.client.SetPathScheduler(sched.WeightedRate())
	// Conn 1 measures 4x the delivery rate of conn 0.
	now := p.now
	m.OnAcked(0, 100_000, 0, now)
	m.OnAcked(0, 100_000, 0, now.Add(time.Second))
	m.OnAcked(1, 400_000, 0, now)
	m.OnAcked(1, 400_000, 0, now.Add(time.Second))

	counts := map[uint32]int{}
	p.client.SetTracer(func(ev TraceEvent) {
		if ev.Name == "sched_pick" {
			counts[ev.Stream]++
		}
	})
	if _, err := p.client.WriteCoupled(make([]byte, 50_000)); err != nil {
		t.Fatal(err)
	}
	p.pump()
	if counts[streams[1]] < 3*counts[streams[0]] {
		t.Fatalf("rate-weighted split off: %v (streams %v)", counts, streams)
	}
	got := make([]byte, 50_000)
	if n := p.server.ReadCoupled(got); n != 50_000 {
		t.Fatalf("delivered %d bytes", n)
	}
}
