package core

import (
	"bytes"
	"testing"
	"time"

	"tcpls/internal/sched"
)

// readAll drains a stream's readable bytes on s.
func readAll(t *testing.T, s *Session, sid uint32) []byte {
	t.Helper()
	var out []byte
	buf := make([]byte, 4096)
	for s.Readable(sid) > 0 {
		n, err := s.Read(sid, buf)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf[:n]...)
	}
	return out
}

// TestHandleSyncBeforeStreamAttach covers the control-frame reordering
// tolerance in handleSync: a SYNC that lands before its STREAM_ATTACH
// must attach the stream's receive context to the new connection itself
// (and re-home the stream) instead of failing or resyncing the wrong
// demux.
func TestHandleSyncBeforeStreamAttach(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true})
	sid, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.client.Write(sid, []byte("before failover")); err != nil {
		t.Fatal(err)
	}
	p.pump()
	if got := readAll(t, p.server, sid); !bytes.Equal(got, []byte("before failover")) {
		t.Fatalf("pre-failover data mismatch: %q", got)
	}
	p.addConn(1)
	p.pump()

	sc := p.server.conns[1]
	if sc.demux.Context(sid) != nil {
		t.Fatal("precondition: stream must not be attached to conn 1 yet")
	}
	st := p.server.streams[sid]
	resume := st.recvCtx.Seq()
	if err := p.server.handleSync(sc, &frame{typ: typeSync, id: sid, seq: resume}); err != nil {
		t.Fatalf("handleSync before attach: %v", err)
	}
	if st.conn != 1 {
		t.Fatalf("stream not re-homed by early SYNC: on conn %d", st.conn)
	}
	if sc.demux.Context(sid) == nil {
		t.Fatal("receive context not attached to the SYNC's connection")
	}
	// The old connection is still live here, so the receive context
	// must STAY attached to it too: records already in flight on conn 0
	// arrive after the re-home and must still decrypt. Detach-on-re-home
	// only happens when the old connection has failed or closed.
	if p.server.conns[0].demux.Context(sid) == nil {
		t.Fatal("receive context detached from a live old connection with records possibly in flight")
	}
	if got := st.recvCtx.Seq(); got != resume {
		t.Fatalf("resume seq = %d, want %d", got, resume)
	}

	// The late STREAM_ATTACH for the same stream must now be a no-op
	// re-home, not an error or a duplicate attach.
	if err := p.server.handleStreamAttach(sc, &frame{typ: typeStreamAttach, id: sid}); err != nil {
		t.Fatalf("late STREAM_ATTACH after SYNC: %v", err)
	}
	if st.conn != 1 || sc.demux.Context(sid) == nil {
		t.Fatal("late STREAM_ATTACH corrupted the re-homed stream")
	}
}

// TestStaleAttachOnFailedConnIgnored: the client opens a stream on conn 0
// and fails over before the server has read any of it, so the server
// first learns of the stream from the ATTACH on conn 1. When conn 0's
// leftover bytes then surface — the original ATTACH among them — the
// server must not re-home the stream onto the dead connection: that
// left the stream's delivery bookkeeping on a context nothing would
// ever advance, and a reader waiting for EOF forever.
func TestStaleAttachOnFailedConnIgnored(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true})
	p.addConn(1)
	p.pump()
	sid, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0xCD}, 40000)
	if _, err := p.client.Write(sid, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	stale, err := p.client.Outgoing(0) // ATTACH and the records: in flight, held back
	if err != nil || len(stale) == 0 || p.client.HasOutgoing(0) {
		t.Fatalf("conn 0's flight: %d bytes, err %v", len(stale), err)
	}
	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.client.FinishStream(sid); err != nil {
		t.Fatal(err)
	}
	p.pump()
	if err := p.server.Receive(0, stale, p.now); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.server.StreamConn(sid); got != 1 {
		t.Fatalf("stale ATTACH re-homed the stream onto failed conn %d", got)
	}
	if got := readAll(t, p.server, sid); !bytes.Equal(got, msg) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(msg))
	}
	if !p.server.PeerFinished(sid) {
		t.Fatal("stream fully delivered and FIN received, yet not finished")
	}
}

// TestDoubleFailoverSameConn: failing the same connection over twice must
// return ErrConnFailed from the second call and leave the first
// failover's stream state intact.
func TestDoubleFailoverSameConn(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, AckPeriod: 1000})
	p.addConn(1)
	p.addConn(2)
	sid, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0xAB}, 40000)
	if _, err := p.client.Write(sid, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// Records sealed onto conn 0 die with it.
	p.client.Outgoing(0)

	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.client.FailoverTo(0, 2); err != ErrConnFailed {
		t.Fatalf("second failover of conn 0 = %v, want ErrConnFailed", err)
	}
	if got, _ := p.client.StreamConn(sid); got != 1 {
		t.Fatalf("double failover moved the stream to conn %d, want 1", got)
	}
	p.pump(0)
	if got := readAll(t, p.server, sid); !bytes.Equal(got, msg) {
		t.Fatalf("replayed data corrupted: got %d bytes, want %d", len(got), len(msg))
	}
}

// TestFailoverOntoFailedTarget: choosing a target that already failed
// must return ErrConnFailed and leave the source untouched, so the
// caller can retry with another target.
func TestFailoverOntoFailedTarget(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, AckPeriod: 1000})
	p.addConn(1)
	p.addConn(2)
	sid, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("survives a bad target pick")
	if _, err := p.client.Write(sid, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	p.client.Outgoing(0)

	if err := p.client.ReportConnFailed(1); err != nil {
		t.Fatal(err)
	}
	if err := p.client.FailoverTo(0, 1); err != ErrConnFailed {
		t.Fatalf("failover onto failed target = %v, want ErrConnFailed", err)
	}
	// Also: failover onto itself is never valid.
	if err := p.client.FailoverTo(0, 0); err != ErrConnFailed {
		t.Fatalf("failover onto itself = %v, want ErrConnFailed", err)
	}
	if got, _ := p.client.StreamConn(sid); got != 0 {
		t.Fatalf("failed failover moved the stream to conn %d, want 0", got)
	}
	// The rejected call must not have marked conn 0 as consumed: the
	// retry with a live target replays everything.
	if err := p.client.FailoverTo(0, 2); err != nil {
		t.Fatalf("retry with live target: %v", err)
	}
	p.pump(0, 1)
	if got := readAll(t, p.server, sid); !bytes.Equal(got, msg) {
		t.Fatalf("replay after retry mismatch: %q", got)
	}
}

// TestCascadingFailoverReplaysTwice: when the failover target dies before
// its replay is delivered, failing the target over again must re-replay
// the same records onto the next connection.
func TestCascadingFailoverReplaysTwice(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, AckPeriod: 1000})
	p.addConn(1)
	p.addConn(2)
	sid, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0x5C}, 100000)
	if _, err := p.client.Write(sid, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	p.client.Outgoing(0) // lost with conn 0

	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	// Conn 1 dies before any replayed byte is delivered.
	p.client.Outgoing(1)
	if err := p.client.FailoverTo(1, 2); err != nil {
		t.Fatalf("cascading failover: %v", err)
	}
	if got, _ := p.client.StreamConn(sid); got != 2 {
		t.Fatalf("stream on conn %d after cascade, want 2", got)
	}
	p.pump(0, 1)
	if got := readAll(t, p.server, sid); !bytes.Equal(got, msg) {
		t.Fatalf("cascaded replay corrupted: got %d bytes, want %d", len(got), len(msg))
	}
}

// TestPeerFailoverReplaysOurSendSide: when the peer fails a connection
// over first (its FAILOVER + STREAM_ATTACH arrive before we acted on the
// failure), our unacknowledged send-side records on the dead connection
// must follow the stream onto the new one — otherwise they are lost even
// though failover "succeeded".
func TestPeerFailoverReplaysOurSendSide(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, AckPeriod: 1000})
	p.addConn(1)
	sid, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	p.pump()

	// The server sends data on conn 0; the bytes die on the wire.
	lost := bytes.Repeat([]byte{0xE7}, 30000)
	if _, err := p.server.Write(sid, lost); err != nil {
		t.Fatal(err)
	}
	if err := p.server.Flush(); err != nil {
		t.Fatal(err)
	}
	p.server.Outgoing(0)

	// The client detects the failure first and fails over. The server
	// only learns via the notice; its own send side must still replay.
	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	p.pump(0)

	if got, _ := p.server.StreamConn(sid); got != 1 {
		t.Fatalf("server stream on conn %d, want 1", got)
	}
	if got := readAll(t, p.client, sid); !bytes.Equal(got, lost) {
		t.Fatalf("server's unacked records lost in peer-driven failover: got %d bytes, want %d", len(got), len(lost))
	}
}

// TestConnFailedTraceOnAllPaths: all three failure-declaration paths —
// Advance (timeout), ReportConnFailed (wrapper), and the peer's FAILOVER
// notice — must emit the conn_failed trace point alongside the event.
func TestConnFailedTraceOnAllPaths(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, UserTimeout: time.Second})
	p.addConn(1)
	p.addConn(2)

	countTrace := func(evs []TraceEvent, name string, conn uint32) int {
		n := 0
		for _, ev := range evs {
			if ev.Name == name && ev.Conn == conn {
				n++
			}
		}
		return n
	}
	var clientTrace, serverTrace []TraceEvent
	p.client.SetTracer(func(ev TraceEvent) { clientTrace = append(clientTrace, ev) })
	p.server.SetTracer(func(ev TraceEvent) { serverTrace = append(serverTrace, ev) })

	// Path 1: explicit wrapper report.
	if err := p.client.ReportConnFailed(2); err != nil {
		t.Fatal(err)
	}
	if countTrace(clientTrace, "conn_failed", 2) != 1 {
		t.Fatal("ReportConnFailed did not emit the conn_failed trace")
	}
	// Idempotent: a duplicate report must not re-trace.
	p.client.ReportConnFailed(2)
	if countTrace(clientTrace, "conn_failed", 2) != 1 {
		t.Fatal("duplicate ReportConnFailed re-emitted conn_failed")
	}

	// Path 2: timeout-driven Advance. The stream keeps conn 0 active.
	sid, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.client.Write(sid, []byte("keepalive")); err != nil {
		t.Fatal(err)
	}
	p.pump()
	failed := p.client.Advance(p.now.Add(2 * time.Second))
	if len(failed) != 1 || failed[0] != 0 {
		t.Fatalf("Advance failed conns = %v, want [0]", failed)
	}
	if countTrace(clientTrace, "conn_failed", 0) != 1 {
		t.Fatal("Advance did not emit the conn_failed trace")
	}

	// Path 3: the peer's FAILOVER notice.
	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	p.pump(0, 2)
	if countTrace(serverTrace, "conn_failed", 0) != 1 {
		t.Fatal("handleFailoverNotice did not emit the conn_failed trace")
	}
	drainEvents(p.client, EventConnFailed)
	drainEvents(p.server, EventConnFailed)
}

// TestFlushParksStreamsOnFailedConns: Flush must not error (and must not
// poison session state) while a stream's connection is down — the bytes
// wait for failover or reconnection.
func TestFlushParksStreamsOnFailedConns(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true})
	sid, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	p.pump()
	if err := p.client.ReportConnFailed(0); err != nil {
		t.Fatal(err)
	}
	msg := []byte("written during total path loss")
	if _, err := p.client.Write(sid, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatalf("Flush with parked stream errored: %v", err)
	}
	if err := p.client.FinishStream(sid); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatalf("Flush with parked FIN errored: %v", err)
	}

	// Recovery: a fresh connection joins and the stream fails over —
	// parked bytes and the FIN drain to the peer.
	p.addConn(1)
	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	p.pump(0)
	if got := readAll(t, p.server, sid); !bytes.Equal(got, msg) {
		t.Fatalf("parked bytes lost: %q", got)
	}
	if !p.server.PeerFinished(sid) {
		t.Fatal("parked FIN never delivered")
	}
}

// TestFailedConnsWithStreams: failed connections are parked, in ID
// order, until their streams move away.
func TestFailedConnsWithStreams(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true})
	p.addConn(1)
	p.addConn(2)
	if _, err := p.client.CreateStream(2); err != nil {
		t.Fatal(err)
	}
	sid0, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	p.pump()
	p.client.ReportConnFailed(0)
	p.client.ReportConnFailed(2)
	parked := func() []uint32 {
		var ids []uint32
		for _, c := range p.client.parkedConns() {
			ids = append(ids, c.id)
		}
		return ids
	}
	got := parked()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("parked = %v, want [0 2]", got)
	}
	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	got = parked()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("after failover, parked = %v, want [2]", got)
	}
	_ = sid0
}

// TestFailoverTargetPrefersLowSRTT: the client's target is the live
// connection with the lowest smoothed RTT; unmeasured connections rank
// after measured ones but are still chosen, and with none live there is
// no target.
func TestFailoverTargetPrefersLowSRTT(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true})
	p.addConn(1)
	p.addConn(2)
	m := sched.NewMetrics()
	p.client.SetMetrics(m)
	// Conn 1: 50ms SRTT. Conn 2: 10ms. Conn 0: never sampled.
	m.OnSent(1, 1000)
	m.OnAcked(1, 1000, 50*time.Millisecond, p.now)
	m.OnSent(2, 1000)
	m.OnAcked(2, 1000, 10*time.Millisecond, p.now)

	target := func() (uint32, bool) {
		c := p.client.failoverTarget()
		if c == nil {
			return 0, false
		}
		return c.id, true
	}
	if id, ok := target(); !ok || id != 2 {
		t.Fatalf("pick = %d/%v, want lowest-SRTT conn 2", id, ok)
	}
	p.client.ReportConnFailed(2)
	if id, ok := target(); !ok || id != 1 {
		t.Fatalf("pick excluding 2 = %d/%v, want 1", id, ok)
	}
	// Unmeasured paths rank after measured ones but are still usable.
	p.client.ReportConnFailed(1)
	if id, ok := target(); !ok || id != 0 {
		t.Fatalf("pick excluding 1,2 = %d/%v, want 0", id, ok)
	}
	p.client.ReportConnFailed(0)
	if _, ok := target(); ok {
		t.Fatal("pick with every conn failed must report no target")
	}
}

// TestCascadeResendsLostNotice: the server detects a dead path its own
// stream was pushed onto, and the client's answer dies with the
// connection that carried it. When that connection fails in turn, the
// client's settlement of the first reopens (a cascade), its notice goes
// out again on the next live connection, and the server's stream — one
// the client never heard of — arrives there intact.
func TestCascadeResendsLostNotice(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, AckPeriod: 1000})
	p.addConn(1)
	p.addConn(2)
	p.pump()
	var cascades int
	p.client.SetTracer(func(ev TraceEvent) {
		if ev.Name == "failover_cascade" && ev.Conn == 1 {
			cascades++
		}
	})

	sid, err := p.server.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0x3A}, 50000)
	if _, err := p.server.Write(sid, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.server.Flush(); err != nil {
		t.Fatal(err)
	}
	p.server.Outgoing(0) // the ATTACH and the records die with conn 0
	p.server.ReportConnFailed(0)
	p.server.Failover() // notice on conn 1
	out, _ := p.server.Outgoing(1)
	if err := p.client.Receive(1, out, p.now); err != nil {
		t.Fatal(err)
	}
	p.client.Failover()  // the client's answer, on conn 1 too ...
	p.client.Outgoing(1) // ... dies with it
	p.client.ReportConnFailed(1)
	if cascades != 1 {
		t.Fatalf("failover_cascade traced %d times, want 1", cascades)
	}
	p.client.Failover()
	p.pump(0, 1)
	if got, _ := p.server.StreamConn(sid); got != 2 {
		t.Fatalf("server stream on conn %d, want 2", got)
	}
	if got := readAll(t, p.client, sid); !bytes.Equal(got, msg) {
		t.Fatalf("client received %d of %d bytes", len(got), len(msg))
	}
}
