// Datapath benchmarks (DESIGN.md §16): steady-state engine send and
// receive cost with the socket out of the picture — records framed,
// sealed, drained, opened, and acknowledged between two in-memory
// engines. The allocs/op figures here are the pool's acceptance gate
// (see also TestDatapathSendZeroAlloc / TestDatapathRecvZeroAlloc):
//
//	go test -bench=Datapath -benchmem ./internal/core/
package core

import (
	"testing"
	"time"
)

const datapathBenchBytes = 64 << 10 // one op = 64 KiB through the engine

// datapathPair is a minimal sender/receiver engine pair for benchmarks
// (no *testing.T plumbing, no per-op allocations of its own).
type datapathPair struct {
	sender   *Session
	receiver *Session
	now      time.Time
}

func newDatapathPair(b testing.TB, cfg Config) (*datapathPair, uint32) {
	sec := testSecrets(b)
	p := &datapathPair{
		sender:   NewSession(RoleClient, sec, cfg),
		receiver: NewSession(RoleServer, sec, cfg),
		now:      time.Unix(1000, 0),
	}
	if err := p.sender.AddConnection(0, p.now); err != nil {
		b.Fatal(err)
	}
	if err := p.receiver.AddConnection(0, p.now); err != nil {
		b.Fatal(err)
	}
	// Discard delivery: the zero-copy callback path (§4.1), so receive
	// cost is deframe + open, not buffer management.
	p.receiver.DeliverData = func(uint32, []byte) {}
	id, err := p.sender.CreateStream(0)
	if err != nil {
		b.Fatal(err)
	}
	p.shuttle(b)
	return p, id
}

// shuttle moves pending bytes both ways until quiescent, recycling every
// drained chunk.
func (p *datapathPair) shuttle(b testing.TB) {
	for moved := true; moved; {
		moved = false
		for _, dir := range []struct{ from, to *Session }{
			{p.sender, p.receiver}, {p.receiver, p.sender},
		} {
			if err := dir.from.Flush(); err != nil && err != ErrNotCoupled {
				b.Fatal(err)
			}
			out, err := dir.from.NextChunk(0)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) == 0 {
				continue
			}
			moved = true
			if err := dir.to.Receive(0, out, p.now); err != nil {
				b.Fatal(err)
			}
			dir.from.RecycleOutgoing(out)
		}
	}
}

// BenchmarkDatapathSend measures the steady-state send path: Write →
// Flush (frame + seal) → Outgoing → recycle, with the receiver opening
// records and acking (failover variant) so retransmit buffers trim and
// the loop reaches a true steady state.
func BenchmarkDatapathSend(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"failover=off", Config{}},
		{"failover=on", Config{EnableFailover: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, id := newDatapathPair(b, tc.cfg)
			payload := make([]byte, datapathBenchBytes)
			b.SetBytes(datapathBenchBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.sender.Write(id, payload); err != nil {
					b.Fatal(err)
				}
				p.shuttle(b)
			}
		})
	}
}

// BenchmarkDatapathRecv isolates the receive path: records are sealed
// once outside the timed loop, then replayed into a fresh receiver demux
// per batch via cloned contexts — deframe + trial decrypt + dispatch,
// delivered through the zero-copy callback.
func BenchmarkDatapathRecv(b *testing.B) {
	cfg := Config{}
	sec := testSecrets(b)
	sender := NewSession(RoleClient, sec, cfg)
	receiver := NewSession(RoleServer, sec, cfg)
	now := time.Unix(1000, 0)
	if err := sender.AddConnection(0, now); err != nil {
		b.Fatal(err)
	}
	if err := receiver.AddConnection(0, now); err != nil {
		b.Fatal(err)
	}
	receiver.DeliverData = func(uint32, []byte) {}
	id, err := sender.CreateStream(0)
	if err != nil {
		b.Fatal(err)
	}
	out, err := sender.Outgoing(0)
	if err != nil {
		b.Fatal(err)
	}
	if err := receiver.Receive(0, out, now); err != nil {
		b.Fatal(err)
	}
	sender.RecycleOutgoing(out)

	// Pre-seal one 64 KiB batch; replaying it requires rewinding the
	// receive context each iteration.
	payload := make([]byte, datapathBenchBytes)
	if _, err := sender.Write(id, payload); err != nil {
		b.Fatal(err)
	}
	if err := sender.Flush(); err != nil {
		b.Fatal(err)
	}
	batch, err := sender.Outgoing(0)
	if err != nil {
		b.Fatal(err)
	}
	recs := int(sender.Stats().RecordsSent) - 1 // minus the ATTACH ctl record
	ctx := receiver.streams[id].recvCtx
	startSeq := ctx.Seq()
	buf := make([]byte, len(batch))
	b.SetBytes(datapathBenchBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The receiver decrypts in place; replay from a pristine copy and
		// rewind the context and duplicate filter.
		copy(buf, batch)
		ctx.SetSeq(startSeq)
		receiver.streams[id].nextDeliverSeq = startSeq
		if err := receiver.Receive(0, buf, now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := int(receiver.Stats().RecordsReceived); got < recs*b.N {
		b.Fatalf("receiver opened %d records, want >= %d", got, recs*b.N)
	}
}

// laggingReader replays one pre-sealed ~256 KiB read into a receiver
// that buffers for Read, with a reader that takes 192 KiB per read: the
// shape of a sink that cannot keep up with the socket.
type laggingReader struct {
	tb       testing.TB
	recv     *Session
	id       uint32
	startSeq uint64
	batch    []byte // the sealed records, pristine
	wire     []byte // what Receive decrypts in place
	sink     []byte
	events   []Event
}

const (
	laggingRead  = 16 * 16368 // sixteen full records, ~256 KiB: one output chunk, one socket read
	laggingDepth = 4 << 20    // queue depth at which the reader catches up
)

func newLaggingReader(tb testing.TB) *laggingReader {
	p, id := newDatapathPair(tb, Config{})
	p.receiver.DeliverData = nil
	if _, err := p.sender.Write(id, make([]byte, laggingRead)); err != nil {
		tb.Fatal(err)
	}
	if err := p.sender.Flush(); err != nil {
		tb.Fatal(err)
	}
	batch, err := p.sender.NextChunk(0)
	if err != nil || p.sender.HasOutgoing(0) {
		tb.Fatalf("one read's worth of records did not fit one chunk (err %v)", err)
	}
	return &laggingReader{
		tb: tb, recv: p.receiver, id: id, startSeq: p.receiver.streams[id].recvCtx.Seq(),
		batch: batch, wire: make([]byte, len(batch)), sink: make([]byte, laggingRead),
	}
}

// cycle is one swing of the queue: Receive 256 KiB / Read 192 KiB until
// it is laggingDepth deep, then drain it.
func (l *laggingReader) cycle() {
	st := l.recv.streams[l.id]
	for l.recv.Readable(l.id) < laggingDepth {
		// In-place decrypt destroys wire; replay from the pristine batch
		// and rewind the context plus the duplicate filter.
		copy(l.wire, l.batch)
		st.recvCtx.SetSeq(l.startSeq)
		st.nextDeliverSeq = l.startSeq
		if err := l.recv.Receive(0, l.wire, time.Unix(1000, 0)); err != nil {
			l.tb.Fatal(err)
		}
		l.events = l.recv.AppendEvents(l.events[:0])
		l.recv.Read(l.id, l.sink[:laggingRead*3/4])
	}
	for l.recv.Readable(l.id) > 0 {
		l.recv.Read(l.id, l.sink)
	}
}

// BenchmarkDatapathRecvLagging is the buffered receive path under a
// lagging reader: deframe, open, one copy into the segment queue, one
// copy out, with the queue swinging between empty and 4 MiB.
func BenchmarkDatapathRecvLagging(b *testing.B) {
	l := newLaggingReader(b)
	l.cycle()
	b.SetBytes(laggingDepth / (laggingRead / 4) * laggingRead)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.cycle()
	}
}
