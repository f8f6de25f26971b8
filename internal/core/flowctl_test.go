package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tcpls/internal/sched"
	"tcpls/internal/telemetry"
)

// collectTrace installs a tracer on s and returns the growing event log.
func collectTrace(s *Session) *[]TraceEvent {
	var events []TraceEvent
	s.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	return &events
}

func traceCount(events []TraceEvent, name string) int {
	n := 0
	for _, ev := range events {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// TestSendWindowHoldsStalledPathGap stalls one of three coupled paths:
// the sender parks at its window instead of filling the receiver's heap,
// the receiver declares no path suspect and stays below its limit, the
// healthy paths stay alive on the parked window's ack solicitations, and
// the UserTimeout fails the stalled path alone, whose replay fills the
// gap byte-exact.
func TestSendWindowHoldsStalledPathGap(t *testing.T) {
	cfg := Config{
		EnableFailover:     true,
		MaxRecordPayload:   512,
		MaxRetransmitBytes: 4096,
		MaxReorderBytes:    4096,
		AckPeriod:          4,
		UserTimeout:        time.Second,
	}
	p := newPair(t, cfg)
	p.addConn(1)
	p.addConn(2)
	s0, _ := p.client.CreateStream(0)
	s1, _ := p.client.CreateStream(1)
	s2, _ := p.client.CreateStream(2)
	for _, id := range []uint32{s0, s1, s2} {
		if err := p.client.SetCoupled(id, true); err != nil {
			t.Fatal(err)
		}
	}
	p.pump() // propagate stream attaches while all paths are healthy
	clientTrace, serverTrace := collectTrace(p.client), collectTrace(p.server)

	// Conn 1 stalls: its bytes are produced but never delivered, in
	// either direction. Time moves in ticks of a quarter timeout.
	data := bytes.Repeat([]byte{0xab}, 16384)
	if _, err := p.client.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}
	step := func() {
		for _, dir := range []struct{ from, to *Session }{{p.client, p.server}, {p.server, p.client}} {
			dir.from.Advance(p.now)
			dir.from.Failover()
			if err := dir.from.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, id := range []uint32{0, 1, 2} {
				out, err := dir.from.Outgoing(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) > 0 && id != 1 && !dir.to.ConnFailed(id) {
					if err := dir.to.Receive(id, out, p.now); err != nil {
						t.Fatalf("receive conn %d: %v", id, err)
					}
				}
				dir.from.RecycleOutgoing(out)
			}
		}
	}
	for i := 0; i < 3; i++ {
		p.now = p.now.Add(cfg.UserTimeout / 4)
		step()
	}
	if !p.client.Parked() || p.server.CoupledReadable() >= len(data) {
		t.Fatal("the stalled path's gap did not park the sender")
	}
	if traceCount(*clientTrace, "flowctl_limit") == 0 {
		t.Fatal("no flowctl_limit trace event at the sender's park")
	}
	if traceCount(*serverTrace, "flowctl_limit") != 0 || p.server.ConnFailed(1) {
		t.Fatal("the receiver tripped its limit or declared a path suspect")
	}
	if peak := snapshot(p.server).ReorderBytesPeak; peak >= cfg.MaxRetransmitBytes {
		t.Fatalf("reorder peak %d reached the %d window", peak, cfg.MaxRetransmitBytes)
	}

	// Recovery: the stalled path's timeout fails it, and only it; the
	// replay fills the gap and the heap drains.
	for i := 0; i < 4 && !p.client.ConnFailed(1); i++ {
		p.now = p.now.Add(cfg.UserTimeout / 4)
		step()
	}
	if !p.client.ConnFailed(1) || p.client.ConnFailed(0) || p.client.ConnFailed(2) {
		t.Fatalf("after the timeout: failed 0/1/2 = %v/%v/%v, want the stalled path only",
			p.client.ConnFailed(0), p.client.ConnFailed(1), p.client.ConnFailed(2))
	}
	p.pump(1)
	got := make([]byte, len(data)+1)
	n := p.server.ReadCoupled(got)
	if n != len(data) || !bytes.Equal(got[:n], data) {
		t.Fatalf("delivered %d bytes after recovery, want %d byte-exact", n, len(data))
	}
	if snap := snapshot(p.server); snap.ReorderBytes != 0 || snap.ReorderDepth != 0 {
		t.Fatalf("reorder heap not drained: %d bytes / %d records",
			snap.ReorderBytes, snap.ReorderDepth)
	}
}

// TestSendWindowChargesTinyRecords: an honest coupled sender of 100-byte
// records, one of two paths lagging, at the default window and limits.
// Each record is charged 2 KiB of the 16 MiB window, so the window holds
// at most DefaultMaxReorderRecords records and the receiver's heap one
// fewer: the sender parks, the receiver never reaches its record limit,
// nothing fails over, and the lagging path's bytes land byte-exact.
func TestSendWindowChargesTinyRecords(t *testing.T) {
	cfg := Config{EnableFailover: true, MaxRecordPayload: 100}
	p := newPair(t, cfg)
	p.addConn(1)
	s0, _ := p.client.CreateStream(0)
	s1, _ := p.client.CreateStream(1)
	p.client.SetCoupled(s0, true)
	p.client.SetCoupled(s1, true)
	p.pump()

	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := p.client.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}
	// Conn 1 lags: what it carries is held back while conn 0 runs until
	// the sender parks.
	var lagged [][]byte
	for progress := true; progress; {
		progress = false
		if err := p.client.Flush(); err != nil {
			t.Fatal(err)
		}
		if out, _ := p.client.Outgoing(1); len(out) > 0 {
			lagged, progress = append(lagged, out), true
		}
		for _, dir := range []struct{ from, to *Session }{{p.client, p.server}, {p.server, p.client}} {
			dir.from.Flush()
			out, _ := dir.from.Outgoing(0)
			if len(out) > 0 {
				if err := dir.to.Receive(0, out, p.now); err != nil {
					t.Fatal(err)
				}
				progress = true
			}
			dir.from.RecycleOutgoing(out)
		}
	}
	if !p.client.Parked() {
		t.Fatal("the lagging path never parked the sender")
	}
	snap := snapshot(p.server)
	if snap.ReorderDepth >= DefaultMaxReorderRecords || snap.ReorderBytes >= DefaultMaxRetransmitBytes {
		t.Fatalf("heap holds %d records / %d bytes at the park: the window let in more than the receiver's limit",
			snap.ReorderDepth, snap.ReorderBytes)
	}
	if snap.ReorderDepth < DefaultMaxReorderRecords/4 {
		t.Fatalf("heap holds only %d records: the lag never filled the window", snap.ReorderDepth)
	}
	for _, out := range lagged {
		if err := p.server.Receive(1, out, p.now); err != nil {
			t.Fatal(err)
		}
		p.client.RecycleOutgoing(out)
	}
	p.pump()
	got := make([]byte, len(data)+1)
	n := 0
	for p.server.CoupledReadable() > 0 {
		n += p.server.ReadCoupled(got[n:])
		p.pump()
	}
	if n != len(data) || !bytes.Equal(got[:n], data) {
		t.Fatalf("delivered %d of %d bytes", n, len(data))
	}
	if st := p.client.Stats(); st.Retransmits != 0 || snapshot(p.server).FlowctlLimits != 0 ||
		len(drainEvents(p.client, EventConnFailed)) != 0 {
		t.Fatalf("honest lag caused %d retransmits / a receiver limit / a failover", st.Retransmits)
	}
}

// TestReorderLimitFailsOverrunningPeer: a peer that seals past the
// window it should keep (its own window off) overruns the receiver's
// reorder limit. Receive fails with the typed error, and the heap pins
// at most the limit plus the one record that crossed it.
func TestReorderLimitFailsOverrunningPeer(t *testing.T) {
	const limit = 8 << 10
	p := newPair(t, Config{EnableFailover: true, MaxRecordPayload: 1024, MaxReorderBytes: limit})
	p.client.cfg.MaxRetransmitBytes = -1 // the hostile sender ignores any window
	p.addConn(1)
	s0, _ := p.client.CreateStream(0)
	s1, _ := p.client.CreateStream(1)
	p.client.SetCoupled(s0, true)
	p.client.SetCoupled(s1, true)
	p.pump()
	trace := collectTrace(p.server)
	if _, err := p.client.WriteCoupled(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// Conn 0 carries aggregation sequence 0: everything on conn 1 parks.
	out, _ := p.client.Outgoing(1)
	err := p.server.Receive(1, out, p.now)
	if !errors.Is(err, ErrReorderLimit) {
		t.Fatalf("Receive past the limit: err = %v, want ErrReorderLimit", err)
	}
	if held := snapshot(p.server).ReorderBytes; held <= limit || held > limit+1024 {
		t.Fatalf("heap pins %d bytes, want past the %d limit by at most one record", held, limit)
	}
	if traceCount(*trace, "flowctl_limit") != 1 {
		t.Fatalf("flowctl_limit events = %d, want 1", traceCount(*trace, "flowctl_limit"))
	}
}

// TestParkedRecordsPinWhatTheyCount: coupled records parked ahead of a
// gap hold a pooled Buf only when they fill most of one, so the memory
// the heap pins stays within twice the bytes the reorder caps count; and
// ReleaseBuffers hands the parked Bufs back, since the gap of a session
// torn down never fills.
func TestParkedRecordsPinWhatTheyCount(t *testing.T) {
	for _, tc := range []struct {
		name       string
		payload    int
		wantPooled bool
	}{{"small", 512, false}, {"full", 0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, Config{MaxRecordPayload: tc.payload})
			p.addConn(1)
			s0, _ := p.client.CreateStream(0)
			s1, _ := p.client.CreateStream(1)
			p.client.SetCoupled(s0, true)
			p.client.SetCoupled(s1, true)
			p.pump()
			recs := 2 * 8
			if _, err := p.client.WriteCoupled(make([]byte, recs*p.client.cfg.maxPayload())); err != nil {
				t.Fatal(err)
			}
			if err := p.client.Flush(); err != nil {
				t.Fatal(err)
			}
			// Conn 0 carries aggregation sequence 0: with it held back,
			// everything conn 1 delivers is ahead of its turn.
			ahead, err := p.client.Outgoing(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.server.Receive(1, ahead, p.now); err != nil {
				t.Fatal(err)
			}
			depth := snapshot(p.server).ReorderDepth
			if depth == 0 || p.server.CoupledReadable() != 0 {
				t.Fatalf("%d records parked, %d bytes readable: want all parked", depth, p.server.CoupledReadable())
			}
			st := p.server.PoolStats()
			if held := int(st.PayloadGets - st.PayloadPuts); tc.wantPooled && held != depth || !tc.wantPooled && held != 0 {
				t.Fatalf("%d pooled Bufs held for %d parked %d-byte records", held, depth, p.client.cfg.maxPayload())
			}
			p.server.ReleaseBuffers()
			if st := p.server.PoolStats(); st.PayloadGets != st.PayloadPuts || snapshot(p.server).ReorderDepth != 0 {
				t.Fatalf("after ReleaseBuffers: %d gets, %d puts, %d records still parked",
					st.PayloadGets, st.PayloadPuts, snapshot(p.server).ReorderDepth)
			}
		})
	}
}

// TestRecvBufferBackpressure fills an unread stream's receive buffer:
// at the cap the engine reports RecvPaused (the wrapper's signal to
// stop socket reads), at twice the cap Receive returns the typed
// error, and draining Read releases the backpressure.
func TestRecvBufferBackpressure(t *testing.T) {
	cfg := Config{MaxRecordPayload: 256, MaxRecvBufferBytes: 1024}
	p := newPair(t, cfg)
	trace := collectTrace(p.server)
	sid, _ := p.client.CreateStream(0)
	p.pump()

	send := func(n int) error {
		if _, err := p.client.Write(sid, bytes.Repeat([]byte{0x5a}, n)); err != nil {
			return err
		}
		if err := p.client.Flush(); err != nil {
			return err
		}
		out, err := p.client.Outgoing(0)
		if err != nil {
			return err
		}
		return p.server.Receive(0, out, p.now)
	}

	if err := send(1024); err != nil {
		t.Fatal(err)
	}
	if !p.server.RecvPaused(0) {
		t.Fatalf("RecvPaused(0) = false with %d bytes buffered at cap %d",
			p.server.Readable(sid), cfg.MaxRecvBufferBytes)
	}
	if traceCount(*trace, "flowctl_limit") != 1 {
		t.Fatalf("flowctl_limit events = %d, want 1", traceCount(*trace, "flowctl_limit"))
	}
	var blocked bool
	for _, si := range snapshot(p.server).Streams {
		if si.ID == sid {
			blocked = si.RecvBlocked
		}
	}
	if !blocked {
		t.Fatal("StreamSnapshot.RecvBlocked not set at the cap")
	}

	// A caller that ignores the backpressure signal hits the hard error
	// at twice the cap; the bytes remain buffered (reliable delivery).
	if err := send(1024); !errors.Is(err, ErrRecvBufferFull) {
		t.Fatalf("Receive past 2x cap: err = %v, want ErrRecvBufferFull", err)
	}
	buffered := p.server.Readable(sid)
	if buffered < 2*cfg.MaxRecvBufferBytes {
		t.Fatalf("buffered %d after hard trip, want >= %d", buffered, 2*cfg.MaxRecvBufferBytes)
	}

	// Draining below half the cap releases the backpressure.
	got := make([]byte, 4096)
	for p.server.Readable(sid) > 0 {
		if _, err := p.server.Read(sid, got); err != nil {
			t.Fatal(err)
		}
	}
	if p.server.RecvPaused(0) {
		t.Fatal("RecvPaused still set after draining")
	}
	// The paused connection accepts records again.
	if err := send(256); err != nil {
		t.Fatal(err)
	}
}

// TestCoupledRecvBufferBackpressure exercises the same bound on the
// coupled group's aggregate buffer.
func TestCoupledRecvBufferBackpressure(t *testing.T) {
	cfg := Config{MaxRecordPayload: 256, MaxRecvBufferBytes: 1024}
	p := newPair(t, cfg)
	sid, _ := p.client.CreateStream(0)
	p.client.SetCoupled(sid, true)
	p.pump()

	if _, err := p.client.WriteCoupled(bytes.Repeat([]byte{0x11}, 1024)); err != nil {
		t.Fatal(err)
	}
	p.pump()
	if !p.server.RecvPaused(0) {
		t.Fatal("coupled group at cap but RecvPaused(0) = false")
	}
	got := make([]byte, 2048)
	n, _ := 0, 0
	for p.server.CoupledReadable() > 0 {
		n += p.server.ReadCoupled(got[n:])
	}
	if n != 1024 {
		t.Fatalf("drained %d coupled bytes, want 1024", n)
	}
	if p.server.RecvPaused(0) {
		t.Fatal("coupled backpressure not released after drain")
	}
}

// TestSendWindowParksWithoutError drops all acknowledgments: the stream
// seals until its send window fills and parks the rest, and Write keeps
// taking bytes without an error: Backlog tells the writer they wait.
// Once acknowledgments come, the parked bytes follow.
func TestSendWindowParksWithoutError(t *testing.T) {
	cfg := Config{
		EnableFailover:     true,
		MaxRecordPayload:   256,
		MaxRetransmitBytes: 2048,
		AckPeriod:          1 << 20, // receiver never acks on its own
	}
	p := newPair(t, cfg)
	trace := collectTrace(p.client)
	sid, _ := p.client.CreateStream(0)
	p.pump()

	msg := bytes.Repeat([]byte{1}, 4096)
	if _, err := p.client.Write(sid, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// Outgoing bytes are held back: no acks come yet.
	held, err := p.client.Outgoing(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshot(p.client).RetransmitBytes; got != cfg.MaxRetransmitBytes {
		t.Fatalf("retransmit buffer %d, want parked exactly at the %d window", got, cfg.MaxRetransmitBytes)
	}
	if traceCount(*trace, "flowctl_limit") != 1 {
		t.Fatalf("flowctl_limit events = %d, want 1", traceCount(*trace, "flowctl_limit"))
	}
	if traceCount(*trace, "ack_solicited") != 1 {
		t.Fatalf("ack_solicited events = %d, want 1 (deduplicated while outstanding)",
			traceCount(*trace, "ack_solicited"))
	}
	var si telemetry.StreamSnapshot
	for _, s := range snapshot(p.client).Streams {
		if s.ID == sid {
			si = s
		}
	}
	if !si.AckSolicited {
		t.Fatal("StreamSnapshot.AckSolicited not set under window pressure")
	}
	if si.PendingBytes != 4096-cfg.MaxRetransmitBytes {
		t.Fatalf("pending %d, want %d parked", si.PendingBytes, 4096-cfg.MaxRetransmitBytes)
	}

	// Writing on at the window is no error: the bytes queue, Backlog
	// reports them, and the engine stays parked.
	more := bytes.Repeat([]byte{2}, 2*cfg.MaxRetransmitBytes)
	if _, err := p.client.Write(sid, more); err != nil {
		t.Fatalf("Write at the window: %v", err)
	}
	if b := p.client.Backlog(sid, false); b != si.PendingBytes+len(more) || !p.client.Parked() {
		t.Fatalf("backlog %d, parked %v: want %d bytes waiting", b, p.client.Parked(), si.PendingBytes+len(more))
	}
	if err := p.server.Receive(0, held, p.now); err != nil {
		t.Fatal(err)
	}
	p.client.RecycleOutgoing(held)
	p.pump() // the solicited ack moves the window; the rest follows
	if got, want := readAll(t, p.server, sid), append(msg, more...); !bytes.Equal(got, want) {
		t.Fatalf("delivered %d of %d bytes", len(got), len(want))
	}
	if p.client.Parked() || p.client.Backlog(sid, false) != 0 {
		t.Fatal("still parked after the acknowledgments")
	}
}

// TestFinWaitsBehindParkedData: a stream finished while bytes are parked
// at the retransmit budget must not announce its FIN yet — the final
// sequence it carries would fall short of the data still to be sealed.
func TestFinWaitsBehindParkedData(t *testing.T) {
	cfg := Config{EnableFailover: true, MaxRecordPayload: 256, MaxRetransmitBytes: 2048}
	p := newPair(t, cfg)
	sid, _ := p.client.CreateStream(0)
	p.pump()
	msg := bytes.Repeat([]byte{7}, 8192)
	if _, err := p.client.Write(sid, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.client.FinishStream(sid); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	if si := snapshot(p.client).Streams[0]; si.PendingBytes == 0 || si.FinSent {
		t.Fatalf("parked with %d bytes pending, FinSent = %v: want bytes pending and no FIN", si.PendingBytes, si.FinSent)
	}
	p.pump() // acks trim the buffer, the rest follows, then the FIN
	if got := readAll(t, p.server, sid); !bytes.Equal(got, msg) {
		t.Fatalf("delivered %d of %d bytes", len(got), len(msg))
	}
	if !snapshot(p.client).Streams[0].FinSent || !p.server.PeerFinished(sid) {
		t.Fatal("stream never finished once the parked data drained")
	}
}

// TestAckSolicitationUnblocks wires both directions: the receiver's ack
// policy would never fire (huge AckPeriod), but the sender's AckRequest
// solicits immediate acknowledgments, so the transfer completes without
// the budget ever deadlocking.
func TestAckSolicitationUnblocks(t *testing.T) {
	cfg := Config{
		EnableFailover:     true,
		MaxRecordPayload:   256,
		MaxRetransmitBytes: 1024,
		AckPeriod:          1 << 20,
	}
	p := newPair(t, cfg)
	sid, _ := p.client.CreateStream(0)
	p.pump()

	data := bytes.Repeat([]byte{7}, 8192)
	if _, err := p.client.Write(sid, data); err != nil {
		t.Fatal(err)
	}
	p.pump()
	got := make([]byte, len(data)+1)
	n, err := p.server.Read(sid, got)
	if err != nil || n != len(data) || !bytes.Equal(got[:n], data) {
		t.Fatalf("read %d bytes (err %v), want %d byte-exact", n, err, len(data))
	}
	if p.client.Stats().AcksReceived == 0 {
		t.Fatal("no acks flowed back despite solicitation")
	}
	snap := snapshot(p.client)
	if snap.RetransmitBytes != 0 {
		t.Fatalf("retransmit buffer %d after full ack drain", snap.RetransmitBytes)
	}
	if snap.RetransmitBytesPeak > cfg.MaxRetransmitBytes {
		t.Fatalf("retransmit peak %d exceeded budget %d",
			snap.RetransmitBytesPeak, cfg.MaxRetransmitBytes)
	}
}

// TestRedundantReplicasRetainTheirOwnRecords: a PickAll pick copies
// nothing for replay. Each replica is retained as its own sealed record,
// in the output chunk of the path it went out on.
func TestRedundantReplicasRetainTheirOwnRecords(t *testing.T) {
	cfg := Config{EnableFailover: true, MaxRecordPayload: 1024}
	p := newPair(t, cfg)
	p.addConn(1)
	s1, _ := p.client.CreateStream(0)
	s2, _ := p.client.CreateStream(1)
	p.client.SetCoupled(s1, true)
	p.client.SetCoupled(s2, true)
	p.client.SetPathScheduler(sched.Redundant())
	p.pump()

	before := p.client.PoolStats()
	if _, err := p.client.WriteCoupled(bytes.Repeat([]byte{3}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.client.PoolStats() != before {
		t.Fatal("sealing the replicas took a Buf")
	}
	for _, sid := range []uint32{s1, s2} {
		st := p.client.streams[sid]
		ch := p.client.conns[st.conn].cur
		if len(st.retransmit) != 1 {
			t.Fatalf("stream %d retains %d records, want 1", sid, len(st.retransmit))
		}
		r := st.retransmit[0]
		tail := ch.b[len(ch.b)-len(r.wire):]
		if r.in != ch || &r.wire[0] != &tail[0] {
			t.Fatalf("stream %d's replica is not retained where it was sealed, at the end of conn %d's chunk", sid, st.conn)
		}
	}
}

// TestFlushAcksDeterministic: acks flush in ascending stream-ID order
// regardless of map iteration.
func TestFlushAcksDeterministic(t *testing.T) {
	cfg := Config{EnableFailover: true, AckPeriod: 1 << 20}
	p := newPair(t, cfg)
	var sids []uint32
	for i := 0; i < 5; i++ {
		sid, _ := p.client.CreateStream(0)
		sids = append(sids, sid)
	}
	p.pump()
	// Write in reverse order so creation order cannot mask map order.
	for i := len(sids) - 1; i >= 0; i-- {
		if _, err := p.client.Write(sids[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.pump()
	trace := collectTrace(p.server)
	p.server.FlushAcks()
	var acked []uint32
	for _, ev := range *trace {
		if ev.Name == "ack_sent" {
			acked = append(acked, ev.Stream)
		}
	}
	if len(acked) != len(sids) {
		t.Fatalf("flushed %d acks, want %d", len(acked), len(sids))
	}
	for i := 1; i < len(acked); i++ {
		if acked[i] <= acked[i-1] {
			t.Fatalf("ack order not ascending: %v", acked)
		}
	}
}

// TestBPFChunkHeaderValidation feeds forged BPF reassembly headers: all
// must be rejected before any oversized allocation happens.
func TestBPFChunkHeaderValidation(t *testing.T) {
	p := newPair(t, Config{})
	s := p.server
	c := s.conns[0]
	cases := []struct {
		name string
		f    frame
	}{
		{"zero chunks", frame{chunkCount: 0, progLen: 8}},
		{"chunk count over limit", frame{chunkCount: 65535, progLen: 1 << 20}},
		{"program over limit", frame{chunkCount: 1, progLen: 1<<20 + 1}},
		{"more chunks than program bytes", frame{chunkCount: 100, progLen: 64}},
	}
	for _, tc := range cases {
		if err := s.handleBPFChunk(c, &tc.f); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}

	// Chunks that together outgrow the advertised progLen abort the
	// whole reassembly.
	big := make([]byte, 600)
	if err := s.handleBPFChunk(c, &frame{chunkCount: 2, chunkIdx: 0, progLen: 1000, chunk: big}); err != nil {
		t.Fatal(err)
	}
	if err := s.handleBPFChunk(c, &frame{chunkCount: 2, chunkIdx: 1, progLen: 1000, chunk: big}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized chunk stream: err = %v, want ErrBadFrame", err)
	}
	if s.bpfChunks != nil {
		t.Fatal("aborted reassembly state not dropped")
	}

	// A legitimate program still reassembles end to end.
	prog := bytes.Repeat([]byte{0xc0}, 2000)
	if err := p.client.SendBPFCC(0, prog); err != nil {
		t.Fatal(err)
	}
	p.pump()
	var got []byte
	for _, ev := range p.server.Events() {
		if ev.Kind == EventBPFCC {
			got = ev.Data
		}
	}
	if !bytes.Equal(got, prog) {
		t.Fatalf("reassembled %d bytes, want %d byte-exact", len(got), len(prog))
	}
}
