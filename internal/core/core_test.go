package core

import (
	"bytes"
	"testing"
	"time"

	"tcpls/internal/handshake"
	"tcpls/internal/record"
	"tcpls/internal/sched"
	"tcpls/internal/telemetry"
)

// testSecrets builds deterministic handshake secrets for engine tests.
func testSecrets(t testing.TB) handshake.Secrets {
	t.Helper()
	suite, err := record.SuiteByID(record.TLSAES128GCMSHA256)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tag byte) []byte {
		b := make([]byte, 32)
		for i := range b {
			b[i] = tag
		}
		return b
	}
	return handshake.Secrets{Suite: suite, ClientApp: mk(1), ServerApp: mk(2)}
}

// pair wires a client and server engine together over in-memory
// "connections" identified by shared IDs.
type pair struct {
	t      *testing.T
	client *Session
	server *Session
	now    time.Time
}

func newPair(t *testing.T, cfg Config) *pair {
	sec := testSecrets(t)
	p := &pair{
		t:      t,
		client: NewSession(RoleClient, sec, cfg),
		server: NewSession(RoleServer, sec, cfg),
		now:    time.Unix(1000, 0),
	}
	p.addConn(0)
	return p
}

func (p *pair) addConn(id uint32) {
	if err := p.client.AddConnection(id, p.now); err != nil {
		p.t.Fatal(err)
	}
	if err := p.server.AddConnection(id, p.now); err != nil {
		p.t.Fatal(err)
	}
}

// pump moves all pending bytes in both directions until quiescent.
// Connections listed in dead are not delivered (simulating failure).
func (p *pair) pump(dead ...uint32) {
	p.t.Helper()
	isDead := func(id uint32) bool {
		for _, d := range dead {
			if d == id {
				return true
			}
		}
		return false
	}
	for moved := true; moved; {
		moved = false
		for _, dir := range []struct{ from, to *Session }{
			{p.client, p.server}, {p.server, p.client},
		} {
			if err := dir.from.Flush(); err != nil && err != ErrNotCoupled {
				p.t.Fatal(err)
			}
			for _, id := range allConnIDs(dir.from) {
				out, err := dir.from.Outgoing(id)
				if err != nil {
					p.t.Fatal(err)
				}
				if len(out) == 0 || isDead(id) {
					dir.from.RecycleOutgoing(out)
					continue
				}
				moved = true
				if err := dir.to.Receive(id, out, p.now); err != nil {
					p.t.Fatalf("receive conn %d: %v", id, err)
				}
				dir.from.RecycleOutgoing(out)
			}
		}
	}
}

// snapshot takes a fresh Snapshot of s.
func snapshot(s *Session) telemetry.Snapshot {
	var snap telemetry.Snapshot
	s.Snapshot(&snap)
	return snap
}

func allConnIDs(s *Session) []uint32 {
	ids := s.Connections()
	// Include failed/closed conns so their queued bytes drain (and are
	// dropped by the pump when marked dead).
	for id := uint32(0); id < 8; id++ {
		listed := false
		for _, x := range ids {
			if x == id {
				listed = true
			}
		}
		if !listed && s.HasOutgoing(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

func drainEvents(s *Session, kind EventKind) []Event {
	var out []Event
	for _, ev := range s.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func TestStreamDataRoundTrip(t *testing.T) {
	p := newPair(t, Config{})
	sid, err := p.client.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello from the client over tcpls")
	if _, err := p.client.Write(sid, msg); err != nil {
		t.Fatal(err)
	}
	p.pump()

	opens := drainEvents(p.server, EventStreamOpen)
	if len(opens) != 1 || opens[0].Stream != sid {
		t.Fatalf("server open events: %+v", opens)
	}
	buf := make([]byte, 100)
	n, err := p.server.Read(sid, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("server read %q", buf[:n])
	}

	// And the reverse direction on the same stream.
	reply := []byte("hello back from the server")
	if _, err := p.server.Write(sid, reply); err != nil {
		t.Fatal(err)
	}
	p.pump()
	n, err = p.client.Read(sid, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], reply) {
		t.Fatalf("client read %q", buf[:n])
	}
}

func TestLargeTransferChunksIntoRecords(t *testing.T) {
	p := newPair(t, Config{})
	sid, _ := p.client.CreateStream(0)
	big := bytes.Repeat([]byte("0123456789abcdef"), 8192) // 128 KiB
	p.client.Write(sid, big)
	p.pump()
	got := make([]byte, len(big))
	n, _ := p.server.Read(sid, got)
	if n != len(big) || !bytes.Equal(got, big) {
		t.Fatalf("read %d of %d bytes", n, len(big))
	}
	// 128 KiB at 16368-byte payloads needs at least 9 records (plus the
	// attach control record).
	if p.client.Stats().RecordsSent < 9 {
		t.Errorf("records sent = %d", p.client.Stats().RecordsSent)
	}
}

// TestOutgoingDrainsEveryChunk: a driver that calls Outgoing once per
// connection gets everything queued, however many output chunks it
// filled, as one slice that counts as one in the chunk books and, under
// write stamping, as one batch; NextChunk hands the same bytes over a
// chunk at a time without the joining copy.
func TestOutgoingDrainsEveryChunk(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true})
	p.client.SetWriteStamping(true)
	sid, _ := p.client.CreateStream(0)
	p.pump()
	p.client.NoteWritten(0, p.now) // the ATTACH chunk the pump carried
	msg := bytes.Repeat([]byte{0x3C}, 3*outChunkBytes)
	for i, drain := range []func(uint32) ([]byte, error){p.client.Outgoing, p.client.NextChunk} {
		before := p.client.PoolStats()
		if _, err := p.client.Write(sid, msg); err != nil {
			t.Fatal(err)
		}
		if err := p.client.Flush(); err != nil {
			t.Fatal(err)
		}
		calls := 0
		for p.client.HasOutgoing(0) {
			out, err := drain(0)
			if err != nil || len(out) == 0 {
				t.Fatalf("drain: %d bytes, err %v", len(out), err)
			}
			calls++
			if err := p.server.Receive(0, out, p.now); err != nil {
				t.Fatal(err)
			}
			p.client.NoteWritten(0, p.now)
			p.client.RecycleOutgoing(out)
		}
		if got := readAll(t, p.server, sid); !bytes.Equal(got, msg) {
			t.Fatalf("delivered %d bytes, want %d", len(got), len(msg))
		}
		if pending := p.client.PendingWriteBatches(); pending != 0 {
			t.Fatalf("%d write batches left after one NoteWritten per slice handed out", pending)
		}
		st := p.client.PoolStats()
		if gets, puts := st.ChunkGets-before.ChunkGets, st.ChunkPuts-before.ChunkPuts; gets != puts {
			t.Fatalf("chunk books: %d gets, %d puts", gets, puts)
		}
		if joined := i == 0; joined != (calls == 1) || calls == 2 {
			t.Fatalf("drain %d took %d calls: want 1 from Outgoing, 3 or more from NextChunk", i, calls)
		}
		p.pump() // acks back, so the next round starts below the retransmit budget
	}
}

// TestWriteSealsWholeRecordsFromCallerSlice: with nothing queued ahead,
// Write seals every whole record straight out of the caller's slice —
// sealed bytes are waiting before any Flush — and queues only the
// sub-record tail. The caller may scribble over its slice the moment
// Write returns; a second Write behind a queued tail takes the queue.
func TestWriteSealsWholeRecordsFromCallerSlice(t *testing.T) {
	p := newPair(t, Config{})
	sid, _ := p.client.CreateStream(0)
	p.pump()
	max := Config{}.maxPayload()
	first := bytes.Repeat([]byte{0xA1}, 3*max+100)
	second := bytes.Repeat([]byte{0xB2}, 2*max)
	want := append(append([]byte(nil), first...), second...)

	before := p.client.Stats().RecordsSent
	p.client.Write(sid, first)
	if got := p.client.Stats().RecordsSent - before; got != 3 {
		t.Fatalf("%d records sealed inside Write, want the 3 whole ones", got)
	}
	if got := snapshot(p.client).Streams[0].PendingBytes; got != 100 {
		t.Fatalf("%d bytes queued, want only the 100-byte tail", got)
	}
	p.client.Write(sid, second)
	if got := p.client.Stats().RecordsSent - before; got != 3 {
		t.Fatalf("a Write behind a queued tail sealed ahead of it (%d records out)", got)
	}
	for i := range first {
		first[i] = 0xEE
	}
	for i := range second {
		second[i] = 0xEE
	}
	p.pump()
	if got := readAll(t, p.server, sid); !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, want %d, equal %v", len(got), len(want), bytes.Equal(got, want))
	}
}

func TestMultiplexedStreamsKeepDataSeparate(t *testing.T) {
	p := newPair(t, Config{})
	s1, _ := p.client.CreateStream(0)
	s2, _ := p.client.CreateStream(0)
	s3, _ := p.client.CreateStream(0)
	p.client.Write(s1, []byte("stream one"))
	p.client.Write(s2, []byte("stream two"))
	p.client.Write(s3, []byte("stream three"))
	p.pump()
	for sid, want := range map[uint32]string{s1: "stream one", s2: "stream two", s3: "stream three"} {
		buf := make([]byte, 64)
		n, err := p.server.Read(sid, buf)
		if err != nil || string(buf[:n]) != want {
			t.Fatalf("stream %d: %q err=%v", sid, buf[:n], err)
		}
	}
}

func TestServerInitiatedStream(t *testing.T) {
	p := newPair(t, Config{})
	sid, err := p.server.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	if sid%2 != 1 {
		t.Fatalf("server stream ID %d not odd", sid)
	}
	p.server.Write(sid, []byte("push"))
	p.pump()
	buf := make([]byte, 16)
	n, _ := p.client.Read(sid, buf)
	if string(buf[:n]) != "push" {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestStreamFin(t *testing.T) {
	p := newPair(t, Config{})
	sid, _ := p.client.CreateStream(0)
	p.client.Write(sid, []byte("last words"))
	p.client.FinishStream(sid)
	p.pump()
	fins := drainEvents(p.server, EventStreamFin)
	if len(fins) != 1 {
		t.Fatalf("fin events: %d", len(fins))
	}
	buf := make([]byte, 32)
	n, _ := p.server.Read(sid, buf)
	if string(buf[:n]) != "last words" {
		t.Fatalf("got %q", buf[:n])
	}
	if !p.server.PeerFinished(sid) {
		t.Error("PeerFinished false after fin + drain")
	}
	if err := p.client.FinishStream(sid); err != ErrStreamFinished {
		t.Errorf("double fin err=%v", err)
	}
	if _, err := p.client.Write(sid, []byte("x")); err != ErrStreamFinished {
		t.Errorf("write after fin err=%v", err)
	}
}

func TestTCPOptionAndControlRecords(t *testing.T) {
	p := newPair(t, Config{})
	if err := p.client.SendTCPOption(0, OptUserTimeout, []byte{0, 0, 0, 250}); err != nil {
		t.Fatal(err)
	}
	p.client.SendAddAddr(0, []byte{192, 0, 2, 7})
	p.pump()
	var opts, adds []Event
	for _, ev := range p.server.Events() {
		switch ev.Kind {
		case EventTCPOption:
			opts = append(opts, ev)
		case EventAddAddr:
			adds = append(adds, ev)
		}
	}
	if len(opts) != 1 || opts[0].OptKind != OptUserTimeout || !bytes.Equal(opts[0].OptVal, []byte{0, 0, 0, 250}) {
		t.Fatalf("tcp option events: %+v", opts)
	}
	if len(adds) != 1 || !bytes.Equal(adds[0].Addr, []byte{192, 0, 2, 7}) {
		t.Fatalf("add addr: %+v", adds)
	}

	p.server.SendNewCookies(0, [][16]byte{{1}, {2}})
	p.server.SendRemoveAddr(0, bytes.Repeat([]byte{0xfe}, 16))
	p.pump()
	cEvents := p.client.Events()
	var sawCookies, sawRemove bool
	for _, ev := range cEvents {
		switch ev.Kind {
		case EventNewCookies:
			sawCookies = len(ev.Cookies) == 2
		case EventRemoveAddr:
			sawRemove = len(ev.Addr) == 16
		}
	}
	if !sawCookies || !sawRemove {
		t.Fatalf("client events: %+v", cEvents)
	}
}

func TestEchoProbe(t *testing.T) {
	p := newPair(t, Config{})
	p.client.SendEcho(0, 0xdeadbeef)
	p.pump()
	replies := drainEvents(p.client, EventEchoReply)
	if len(replies) != 1 || replies[0].Token != 0xdeadbeef {
		t.Fatalf("echo replies: %+v", replies)
	}
}

func TestBPFCCTransfer(t *testing.T) {
	p := newPair(t, Config{MaxRecordPayload: 100})
	prog := bytes.Repeat([]byte{0xbf}, 450) // forces 5 chunks
	if err := p.server.SendBPFCC(0, prog); err != nil {
		t.Fatal(err)
	}
	p.pump()
	evs := drainEvents(p.client, EventBPFCC)
	if len(evs) != 1 || !bytes.Equal(evs[0].Data, prog) {
		t.Fatalf("bpf events: %d", len(evs))
	}
}

func TestAcksTrimRetransmitBuffer(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, AckPeriod: 4, MaxRecordPayload: 1000})
	sid, _ := p.client.CreateStream(0)
	p.client.Write(sid, bytes.Repeat([]byte{7}, 8000)) // 8 records
	p.pump()
	if got := p.server.Stats().AcksSent; got < 2 {
		t.Errorf("server sent %d acks, want >= 2", got)
	}
	st := p.client.streams[sid]
	if len(st.retransmit) != 0 {
		t.Errorf("retransmit buffer holds %d records after full ack", len(st.retransmit))
	}
	if p.client.Stats().AcksReceived == 0 {
		t.Error("client saw no acks")
	}
}

func TestNoAcksWithoutFailover(t *testing.T) {
	p := newPair(t, Config{})
	sid, _ := p.client.CreateStream(0)
	p.client.Write(sid, bytes.Repeat([]byte{7}, 100000))
	p.pump()
	if got := p.server.Stats().AcksSent; got != 0 {
		t.Errorf("acks sent without failover: %d", got)
	}
	if st := p.client.streams[sid]; len(st.retransmit) != 0 {
		t.Errorf("retransmit buffering without failover: %d", len(st.retransmit))
	}
}

func TestFailoverReplaysLostRecords(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, AckPeriod: 2, MaxRecordPayload: 1000})
	p.addConn(1)
	sid, _ := p.client.CreateStream(0)

	// Phase 1: 4 KiB delivered and acked.
	phase1 := bytes.Repeat([]byte{1}, 4000)
	p.client.Write(sid, phase1)
	p.pump()

	// Phase 2: 4 KiB framed onto conn 0 but never delivered (outage).
	phase2 := bytes.Repeat([]byte{2}, 4000)
	p.client.Write(sid, phase2)
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	if out, _ := p.client.Outgoing(0); len(out) == 0 {
		t.Fatal("no bytes framed for conn 0")
	} // dropped on the floor: the connection died

	// Client fails over to conn 1 and replays.
	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	if p.client.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
	p.pump(0)

	got := make([]byte, 16000)
	n, _ := p.server.Read(sid, got)
	want := append(append([]byte(nil), phase1...), phase2...)
	if !bytes.Equal(got[:n], want) {
		t.Fatalf("server got %d bytes, want %d contiguous", n, len(want))
	}
	if evs := drainEvents(p.server, EventConnFailed); len(evs) == 0 {
		t.Error("server saw no failover notification")
	}
}

func TestFailoverDuplicateFilter(t *testing.T) {
	// Records delivered but whose ACK was lost must be replayed by the
	// sender and silently dropped by the receiver.
	p := newPair(t, Config{EnableFailover: true, AckPeriod: 100, MaxRecordPayload: 1000})
	p.addConn(1)
	sid, _ := p.client.CreateStream(0)
	data := bytes.Repeat([]byte{3}, 5000) // 5 records, under ack period
	p.client.Write(sid, data)
	p.pump() // delivered, but no acks sent (period 100)

	st := p.client.streams[sid]
	if len(st.retransmit) != 5 {
		t.Fatalf("retransmit buffer %d, want 5 (no acks)", len(st.retransmit))
	}
	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	p.pump(0)
	if dups := p.server.Stats().DupRecordsDropped; dups != 5 {
		t.Errorf("duplicate drops = %d, want 5", dups)
	}
	got := make([]byte, 20000)
	n, _ := p.server.Read(sid, got)
	if !bytes.Equal(got[:n], data) {
		t.Fatalf("server got %d bytes, want exactly %d (no duplication)", n, len(data))
	}
}

func TestUserTimeoutMarksConnFailed(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, UserTimeout: 250 * time.Millisecond})
	sid, _ := p.client.CreateStream(0)
	p.client.Write(sid, []byte("in flight"))
	p.pump()

	// Silence shorter than UTO: nothing fails.
	if failed := p.client.Advance(p.now.Add(200 * time.Millisecond)); failed != nil {
		t.Fatalf("early failure: %v", failed)
	}
	// Silence beyond UTO on an active conn: failure.
	failed := p.client.Advance(p.now.Add(300 * time.Millisecond))
	if len(failed) != 1 || failed[0] != 0 {
		t.Fatalf("failed conns: %v", failed)
	}
	if !p.client.ConnFailed(0) {
		t.Error("conn 0 not marked failed")
	}
	evs := drainEvents(p.client, EventConnFailed)
	if len(evs) != 1 {
		t.Errorf("conn failed events: %d", len(evs))
	}
}

func TestUserTimeoutIgnoresFinishedStreams(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true, UserTimeout: 250 * time.Millisecond})
	sid, _ := p.client.CreateStream(0)
	p.client.Write(sid, []byte("bye"))
	p.client.FinishStream(sid)
	p.pump()
	p.server.FinishStream(sid)
	p.pump()
	if failed := p.client.Advance(p.now.Add(10 * time.Second)); failed != nil {
		t.Fatalf("idle finished conn failed: %v", failed)
	}
}

func TestCoupledStreamsAggregateInOrder(t *testing.T) {
	p := newPair(t, Config{MaxRecordPayload: 1000})
	p.addConn(1)
	s1, _ := p.client.CreateStream(0)
	s2, _ := p.client.CreateStream(1)
	p.pump() // deliver attaches
	p.client.SetCoupled(s1, true)
	p.client.SetCoupled(s2, true)

	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := p.client.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// Deliver conn 1's bytes BEFORE conn 0's: records arrive out of
	// aggregation order and must be reordered by the heap.
	out1, _ := p.client.Outgoing(1)
	out0, _ := p.client.Outgoing(0)
	if len(out0) == 0 || len(out1) == 0 {
		t.Fatalf("round robin failed: %d / %d bytes", len(out0), len(out1))
	}
	if err := p.server.Receive(1, out1, p.now); err != nil {
		t.Fatal(err)
	}
	if err := p.server.Receive(0, out0, p.now); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n := p.server.ReadCoupled(got)
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("coupled read %d bytes, in-order=%v", n, bytes.Equal(got[:n], data[:n]))
	}
}

func TestCustomScheduler(t *testing.T) {
	p := newPair(t, Config{MaxRecordPayload: 1000})
	p.addConn(1)
	s1, _ := p.client.CreateStream(0)
	s2, _ := p.client.CreateStream(1)
	p.pump()
	p.client.SetCoupled(s1, true)
	p.client.SetCoupled(s2, true)
	// Send everything on the second stream.
	p.client.SetPathScheduler(pinSched(1))
	p.client.WriteCoupled(make([]byte, 5000))
	p.client.Flush()
	out0, _ := p.client.Outgoing(0)
	out1, _ := p.client.Outgoing(1)
	if len(out0) != 0 {
		t.Errorf("conn 0 carried %d bytes despite pinned scheduler", len(out0))
	}
	if len(out1) == 0 {
		t.Error("conn 1 carried nothing")
	}
}

func TestWriteCoupledWithoutCoupledStreams(t *testing.T) {
	p := newPair(t, Config{})
	if _, err := p.client.WriteCoupled([]byte("x")); err != ErrNotCoupled {
		t.Fatalf("err=%v, want ErrNotCoupled", err)
	}
}

func TestConnClose(t *testing.T) {
	p := newPair(t, Config{})
	if err := p.client.CloseConnection(0); err != nil {
		t.Fatal(err)
	}
	p.pump()
	evs := drainEvents(p.server, EventConnClosed)
	if len(evs) != 1 {
		t.Fatalf("close events: %d", len(evs))
	}
	if ids := p.client.Connections(); len(ids) != 0 {
		t.Errorf("closed conn still listed: %v", ids)
	}
}

func TestUnknownConnAndStreamErrors(t *testing.T) {
	p := newPair(t, Config{})
	if _, err := p.client.CreateStream(42); err == nil {
		t.Error("CreateStream on unknown conn succeeded")
	}
	if _, err := p.client.Write(99, nil); err == nil {
		t.Error("Write on unknown stream succeeded")
	}
	if _, err := p.client.Outgoing(42); err == nil {
		t.Error("Outgoing on unknown conn succeeded")
	}
	if err := p.client.AddConnection(0, p.now); err != ErrDuplicateConn {
		t.Errorf("duplicate conn err=%v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := newPair(t, Config{})
	sid, _ := p.client.CreateStream(0)
	msg := bytes.Repeat([]byte{9}, 30000)
	p.client.Write(sid, msg)
	p.pump()
	cs, ss := p.client.Stats(), p.server.Stats()
	if cs.BytesSent != uint64(len(msg)) {
		t.Errorf("client BytesSent=%d", cs.BytesSent)
	}
	if ss.BytesReceived != uint64(len(msg)) {
		t.Errorf("server BytesReceived=%d", ss.BytesReceived)
	}
	if ss.RecordsReceived < 2 {
		t.Errorf("server RecordsReceived=%d", ss.RecordsReceived)
	}
}

// TestSnapshotAllocFree is the engine half of the sampler's zero-alloc
// gate: a Snapshot into a kept dst — 2 conns, 4 streams, path metrics
// installed — allocates nothing, and its rows come in ascending ID
// order with the session's totals adding up.
func TestSnapshotAllocFree(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true})
	p.client.SetMetrics(sched.NewMetrics())
	p.client.SetPathScheduler(sched.LowestRTT())
	p.addConn(1)
	var coupled [2]uint32
	for i := range coupled {
		coupled[i], _ = p.client.CreateStream(uint32(i))
		if err := p.client.SetCoupled(coupled[i], true); err != nil {
			t.Fatal(err)
		}
	}
	sid, _ := p.client.CreateStream(0)
	p.client.CreateStream(1)
	p.pump()
	p.client.Write(sid, make([]byte, 30000))
	if _, err := p.client.WriteCoupled(make([]byte, 60000)); err != nil {
		t.Fatal(err)
	}
	p.pump()

	var snap telemetry.Snapshot
	p.client.Snapshot(&snap)
	if n := testing.AllocsPerRun(100, func() { p.client.Snapshot(&snap) }); n != 0 {
		t.Fatalf("Snapshot into a kept dst allocates %v per call", n)
	}
	if len(snap.Conns) != 2 || snap.Conns[0].ID != 0 || snap.Conns[1].ID != 1 || snap.ConnsLive != 2 {
		t.Fatalf("conn rows %+v, live %d: want conns 0 and 1, both live", snap.Conns, snap.ConnsLive)
	}
	if len(snap.Streams) != 4 || snap.StreamsOpen != 4 {
		t.Fatalf("%d stream rows, StreamsOpen %d: want 4", len(snap.Streams), snap.StreamsOpen)
	}
	var perConn, perStream uint64
	for i, st := range snap.Streams {
		if i > 0 && st.ID <= snap.Streams[i-1].ID {
			t.Fatalf("stream rows out of order: %d after %d", st.ID, snap.Streams[i-1].ID)
		}
		perStream += st.BytesSent
	}
	for _, c := range snap.Conns {
		perConn += c.BytesSent
	}
	if snap.Stats != p.client.Stats() || snap.BytesSent != 90000 || perConn != 90000 || perStream != 90000 {
		t.Fatalf("bytes sent: session %d, conns %d, streams %d, want 90000 each", snap.BytesSent, perConn, perStream)
	}
	if snap.Scheduler != "lowrtt" || snap.SchedPicks["lowrtt"] == 0 {
		t.Fatalf("scheduler %q, picks %v", snap.Scheduler, snap.SchedPicks)
	}
	if snap.MemoryBytes != p.client.BufferedBytes() {
		t.Fatalf("MemoryBytes %d, BufferedBytes %d", snap.MemoryBytes, p.client.BufferedBytes())
	}
}

func TestFailoverReplaysCoupledRecords(t *testing.T) {
	// Coupled records carry aggregation sequence numbers; a failover
	// replay must reproduce them exactly or the receiver's reordering
	// heap would mis-sequence the aggregate.
	p := newPair(t, Config{EnableFailover: true, AckPeriod: 100, MaxRecordPayload: 1000})
	p.addConn(1)
	s1, _ := p.client.CreateStream(0)
	s2, _ := p.client.CreateStream(1)
	p.pump()
	p.client.SetCoupled(s1, true)
	p.client.SetCoupled(s2, true)

	data := make([]byte, 8000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	p.client.WriteCoupled(data)
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	// Conn 0's share is lost with the connection; conn 1 delivers.
	if out, _ := p.client.Outgoing(0); len(out) == 0 {
		t.Fatal("nothing framed on conn 0")
	}
	out1, _ := p.client.Outgoing(1)
	if err := p.server.Receive(1, out1, p.now); err != nil {
		t.Fatal(err)
	}
	// The aggregate cannot deliver past the first missing agg seq.
	if got := p.server.CoupledReadable(); got >= len(data) {
		t.Fatalf("aggregate complete despite lost records: %d", got)
	}

	// Fail over conn 0 onto conn 1 and replay.
	if err := p.client.FailoverTo(0, 1); err != nil {
		t.Fatal(err)
	}
	p.pump(0)
	got := make([]byte, len(data))
	n := p.server.ReadCoupled(got)
	if n != len(data) || !bytes.Equal(got[:n], data) {
		t.Fatalf("aggregate after coupled failover: %d bytes, intact=%v", n, bytes.Equal(got[:n], data[:n]))
	}
}

func TestDeliverDataCallbackZeroCopyContract(t *testing.T) {
	// With DeliverData installed, payloads must arrive via the callback
	// and nothing must accumulate in the engine's read buffers.
	p := newPair(t, Config{MaxRecordPayload: 1000})
	sid, _ := p.client.CreateStream(0)
	var got []byte
	p.server.DeliverData = func(streamID uint32, payload []byte) {
		if streamID != sid {
			t.Errorf("payload for stream %d, want %d", streamID, sid)
		}
		got = append(got, payload...)
	}
	msg := bytes.Repeat([]byte{0xab}, 5000)
	p.client.Write(sid, msg)
	p.pump()
	if !bytes.Equal(got, msg) {
		t.Fatalf("callback delivered %d bytes", len(got))
	}
	if p.server.Readable(sid) != 0 {
		t.Error("engine buffered data despite delivery callback")
	}
}
