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

// datapathVariants are the engine shapes the datapath gates cover: one
// path without and with failover, and bulk_failover_2p's two coupled
// paths with failover on.
var datapathVariants = []struct {
	name  string
	cfg   Config
	paths int
}{
	{"failover=off", Config{}, 1},
	{"failover=on", Config{EnableFailover: true}, 1},
	{"coupled=2p", Config{EnableFailover: true}, 2},
}

// datapathPair is a minimal sender/receiver engine pair for benchmarks
// (no *testing.T plumbing, no per-op allocations of its own): one stream
// per path, all coupled when there are several.
type datapathPair struct {
	sender   *Session
	receiver *Session
	conns    []uint32
	streams  []uint32
	now      time.Time
}

func newDatapathPair(tb testing.TB, cfg Config, paths int) *datapathPair {
	sec := testSecrets(tb)
	p := &datapathPair{
		sender:   NewSession(RoleClient, sec, cfg),
		receiver: NewSession(RoleServer, sec, cfg),
		now:      time.Unix(1000, 0),
	}
	for c := uint32(0); c < uint32(paths); c++ {
		if err := p.sender.AddConnection(c, p.now); err != nil {
			tb.Fatal(err)
		}
		if err := p.receiver.AddConnection(c, p.now); err != nil {
			tb.Fatal(err)
		}
		id, err := p.sender.CreateStream(c)
		if err != nil {
			tb.Fatal(err)
		}
		p.conns, p.streams = append(p.conns, c), append(p.streams, id)
	}
	// Discard delivery: the zero-copy callback path (§4.1), so receive
	// cost is deframe + open, not buffer management.
	p.receiver.DeliverData = func(uint32, []byte) {}
	p.receiver.DeliverCoupled = func([]byte) {}
	p.shuttle(tb)
	if paths > 1 {
		for _, id := range p.streams {
			p.sender.SetCoupled(id, true)
		}
	}
	return p
}

// write hands data to the stream, or to the coupled group.
func (p *datapathPair) write(tb testing.TB, data []byte) {
	var err error
	if len(p.streams) > 1 {
		_, err = p.sender.WriteCoupled(data)
	} else {
		_, err = p.sender.Write(p.streams[0], data)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// shuttle moves pending bytes both ways until quiescent, recycling every
// drained chunk.
func (p *datapathPair) shuttle(tb testing.TB) {
	for moved := true; moved; {
		moved = false
		for _, dir := range []struct{ from, to *Session }{
			{p.sender, p.receiver}, {p.receiver, p.sender},
		} {
			if err := dir.from.Flush(); err != nil && err != ErrNotCoupled {
				tb.Fatal(err)
			}
			for _, c := range p.conns {
				out, err := dir.from.NextChunk(c)
				if err != nil {
					tb.Fatal(err)
				}
				if len(out) == 0 {
					continue
				}
				moved = true
				if err := dir.to.Receive(c, out, p.now); err != nil {
					tb.Fatal(err)
				}
				dir.from.RecycleOutgoing(out)
			}
		}
	}
}

// BenchmarkDatapathSend measures the steady-state send path: Write →
// Flush (frame + seal) → NextChunk → recycle, with the receiver opening
// records and acking (failover variant) so retransmit buffers trim and
// the loop reaches a true steady state.
func BenchmarkDatapathSend(b *testing.B) {
	for _, tc := range datapathVariants {
		b.Run(tc.name, func(b *testing.B) {
			p := newDatapathPair(b, tc.cfg, tc.paths)
			payload := make([]byte, datapathBenchBytes)
			b.SetBytes(datapathBenchBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.write(b, payload)
				p.shuttle(b)
			}
		})
	}
}

// recvReplay isolates the receive path: one 64 KiB write is sealed once,
// a batch per path, and opened again and again by the receiver, whose
// receive contexts, duplicate filters and reorder heap are rewound before
// each replay. Receive never writes into its input, so the batches need
// no refreshing. Over coupled paths the write is whole records: a record
// under half a Buf that arrives ahead of its turn parks as a copy of its
// own size, an allocation by design (TestParkedRecordsPinWhatTheyCount).
type recvReplay struct {
	tb      testing.TB
	p       *datapathPair
	bytes   int // per replay
	batches [][]byte
	seqs    []uint64 // each stream's first sequence in its batch
	aggSeq  uint64   // the coupled group's first aggregation sequence
	records uint64   // per replay
}

func newRecvReplay(tb testing.TB, cfg Config, paths int) *recvReplay {
	p := newDatapathPair(tb, cfg, paths)
	n := datapathBenchBytes
	if paths > 1 {
		n -= n % cfg.maxPayload()
	}
	p.write(tb, make([]byte, n))
	if err := p.sender.Flush(); err != nil {
		tb.Fatal(err)
	}
	r := &recvReplay{tb: tb, p: p, bytes: n, aggSeq: p.receiver.coupled.buf.Next()}
	for i, c := range p.conns {
		batch, err := p.sender.Outgoing(c)
		if err != nil {
			tb.Fatal(err)
		}
		r.batches = append(r.batches, batch)
		r.seqs = append(r.seqs, p.receiver.streams[p.streams[i]].recvCtx.Seq())
	}
	before := p.receiver.Stats().RecordsReceived
	r.op()
	r.records = p.receiver.Stats().RecordsReceived - before
	return r
}

// op rewinds the receiver and replays every batch, then drains and
// recycles what the receiver sent back (its acks).
func (r *recvReplay) op() {
	rcv := r.p.receiver
	for i, id := range r.p.streams {
		st := rcv.streams[id]
		st.recvCtx.SetSeq(r.seqs[i])
		st.nextDeliverSeq = r.seqs[i]
	}
	rcv.coupled.buf.Reset(r.aggSeq)
	for i, c := range r.p.conns {
		if err := rcv.Receive(c, r.batches[i], r.p.now); err != nil {
			r.tb.Fatal(err)
		}
	}
	for _, c := range r.p.conns {
		for out, _ := rcv.NextChunk(c); out != nil; out, _ = rcv.NextChunk(c) {
			rcv.RecycleOutgoing(out)
		}
	}
}

// BenchmarkDatapathRecv measures deframe + trial decrypt + dispatch,
// delivered through the zero-copy callbacks; the coupled variant parks
// every other record in the reorder heap.
func BenchmarkDatapathRecv(b *testing.B) {
	for _, tc := range datapathVariants {
		b.Run(tc.name, func(b *testing.B) {
			r := newRecvReplay(b, tc.cfg, tc.paths)
			b.SetBytes(int64(r.bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.op()
			}
			b.StopTimer()
			if got := r.p.receiver.Stats().RecordsReceived; r.records == 0 || got < r.records*uint64(b.N) {
				b.Fatalf("receiver opened %d records, want >= %d", got, r.records*uint64(b.N))
			}
		})
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
	batch    []byte // the sealed records
	sink     []byte
	events   []Event
}

const (
	laggingRead  = 16 * 16368 // sixteen full records, ~256 KiB: one output chunk, one socket read
	laggingDepth = 4 << 20    // queue depth at which the reader catches up
)

func newLaggingReader(tb testing.TB) *laggingReader {
	p := newDatapathPair(tb, Config{}, 1)
	p.receiver.DeliverData = nil
	p.write(tb, make([]byte, laggingRead))
	if err := p.sender.Flush(); err != nil {
		tb.Fatal(err)
	}
	batch, err := p.sender.NextChunk(0)
	if err != nil || p.sender.HasOutgoing(0) {
		tb.Fatalf("one read's worth of records did not fit one chunk (err %v)", err)
	}
	id := p.streams[0]
	return &laggingReader{
		tb: tb, recv: p.receiver, id: id, startSeq: p.receiver.streams[id].recvCtx.Seq(),
		batch: batch, sink: make([]byte, laggingRead),
	}
}

// cycle is one swing of the queue: Receive 256 KiB / Read 192 KiB until
// it is laggingDepth deep, then drain it.
func (l *laggingReader) cycle() {
	st := l.recv.streams[l.id]
	for l.recv.Readable(l.id) < laggingDepth {
		// Replay the batch: rewind the context plus the duplicate filter.
		st.recvCtx.SetSeq(l.startSeq)
		st.nextDeliverSeq = l.startSeq
		if err := l.recv.Receive(0, l.batch, time.Unix(1000, 0)); err != nil {
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
// lagging reader: deframe, open into a Buf the segment queue keeps, one
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
