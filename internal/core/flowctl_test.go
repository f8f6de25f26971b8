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

// TestReorderCapDeclaresSuspect stalls one of three coupled paths: the
// receiver's reorder heap grows past the configured cap, the quietest
// path is declared suspect, and the sender's failover replay fills the
// gap so the transfer completes with the heap drained.
func TestReorderCapDeclaresSuspect(t *testing.T) {
	cfg := Config{
		EnableFailover:   true,
		MaxRecordPayload: 512,
		MaxReorderBytes:  4096,
		AckPeriod:        4,
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
	serverTrace := collectTrace(p.server)

	// Conn 1 stalls: its bytes are produced but never delivered. Age the
	// stall across two batches so the server's lastRecv for conns 0 and 2
	// genuinely advances past conn 1's.
	data := bytes.Repeat([]byte{0xab}, 16384)
	if _, err := p.client.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}
	var stalled [][]byte
	for batch := 0; batch < 2; batch++ {
		p.now = p.now.Add(100 * time.Millisecond)
		if err := p.client.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, id := range []uint32{0, 1, 2} {
			out, err := p.client.Outgoing(id)
			if err != nil {
				t.Fatal(err)
			}
			if id == 1 {
				stalled = append(stalled, out)
				continue
			}
			if len(out) > 0 {
				if err := p.server.Receive(id, out, p.now); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	if !p.server.ConnFailed(1) {
		t.Fatalf("stalled conn 1 not declared suspect (reorder bytes %d, cap %d)",
			snapshot(p.server).ReorderBytes, cfg.MaxReorderBytes)
	}
	if p.server.ConnFailed(0) || p.server.ConnFailed(2) {
		t.Fatal("a live path was declared suspect")
	}
	if traceCount(*serverTrace, "flowctl_limit") == 0 {
		t.Fatal("no flowctl_limit trace event at the cap")
	}
	found := false
	for _, ev := range p.server.Events() {
		if ev.Kind == EventConnFailed && ev.Conn == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no EventConnFailed for the suspect path")
	}
	if peak := snapshot(p.server).ReorderBytesPeak; peak < cfg.MaxReorderBytes {
		t.Fatalf("reorder peak %d never reached the cap %d", peak, cfg.MaxReorderBytes)
	}

	// Recovery: the sender fails the stalled path over and replays its
	// unacknowledged records; the gap fills and the heap drains.
	if err := p.client.FailoverTo(1, 0); err != nil {
		t.Fatal(err)
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

// TestRetransmitBudgetParksAndErrors drops all acknowledgments: the
// stream seals until its retransmit budget fills, parks the rest, and
// Write surfaces the typed error once a further budget's worth queues.
func TestRetransmitBudgetParksAndErrors(t *testing.T) {
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

	if _, err := p.client.Write(sid, bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// Outgoing bytes are dropped: no acks ever come back.
	if _, err := p.client.Outgoing(0); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(p.client).RetransmitBytes; got != cfg.MaxRetransmitBytes {
		t.Fatalf("retransmit buffer %d, want parked exactly at budget %d", got, cfg.MaxRetransmitBytes)
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
		t.Fatal("StreamSnapshot.AckSolicited not set under budget pressure")
	}
	if si.PendingBytes != 4096-cfg.MaxRetransmitBytes {
		t.Fatalf("pending %d, want %d parked", si.PendingBytes, 4096-cfg.MaxRetransmitBytes)
	}

	// Queueing up to one extra budget is allowed; past it Write errors.
	room := cfg.MaxRetransmitBytes - si.PendingBytes
	if _, err := p.client.Write(sid, make([]byte, room)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.client.Write(sid, []byte{0}); !errors.Is(err, ErrRetransmitBudget) {
		t.Fatalf("Write past pending cap: err = %v, want ErrRetransmitBudget", err)
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
