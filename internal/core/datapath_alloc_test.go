package core

import (
	"testing"
	"time"
)

// These tests are the datapath pool's acceptance gate (DESIGN.md §16):
// once the buffer arena, byte queues, and scratch fields are warm, a
// steady-state 64 KiB send or receive op must not allocate at all. CI
// runs them alongside the BenchmarkDatapath* smoke job; a regression
// here means a buffer escaped the pool or a hot-path struct started
// heap-escaping again.

func TestDatapathSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are nondeterministic")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"failover=off", Config{}},
		{"failover=on", Config{EnableFailover: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, id := newDatapathPair(t, tc.cfg)
			payload := make([]byte, datapathBenchBytes)
			op := func() {
				if _, err := p.sender.Write(id, payload); err != nil {
					t.Fatal(err)
				}
				p.shuttle(t)
			}
			// Warm the pools: first ops allocate arena buffers, queue
			// storage, and retransmit slices that are reused afterwards.
			for i := 0; i < 32; i++ {
				op()
			}
			if avg := testing.AllocsPerRun(100, op); avg != 0 {
				t.Fatalf("steady-state send: %.2f allocs/op, want 0", avg)
			}
		})
	}
}

func TestDatapathRecvZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are nondeterministic")
	}
	p, id := newDatapathPair(t, Config{})
	now := time.Unix(1000, 0)
	payload := make([]byte, datapathBenchBytes)
	if _, err := p.sender.Write(id, payload); err != nil {
		t.Fatal(err)
	}
	if err := p.sender.Flush(); err != nil {
		t.Fatal(err)
	}
	batch, err := p.sender.Outgoing(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := p.receiver.streams[id].recvCtx
	startSeq := ctx.Seq()
	buf := make([]byte, len(batch))
	op := func() {
		// In-place decrypt destroys buf; replay from the pristine batch
		// and rewind the context plus the duplicate filter.
		copy(buf, batch)
		ctx.SetSeq(startSeq)
		p.receiver.streams[id].nextDeliverSeq = startSeq
		if err := p.receiver.Receive(0, buf, now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		op()
	}
	if avg := testing.AllocsPerRun(100, op); avg != 0 {
		t.Fatalf("steady-state receive: %.2f allocs/op, want 0", avg)
	}
}

// TestDatapathRecvLaggingReaderZeroAlloc is the receive queue's gate: a
// reader that takes 192 KiB for every 256 KiB the socket delivers lets
// the queue run several MiB deep before it catches up. Once the segment
// pool has seen one such swing, the next ones must not allocate — the
// contiguous queue this replaced re-grew its array on every swing.
func TestDatapathRecvLaggingReaderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are nondeterministic")
	}
	l := newLaggingReader(t)
	for i := 0; i < 3; i++ {
		l.cycle()
	}
	if avg := testing.AllocsPerRun(5, l.cycle); avg != 0 {
		t.Fatalf("lagging reader: %.2f allocs per fill/drain cycle, want 0", avg)
	}
	if st := l.recv.PoolStats(); st.PayloadGets != st.PayloadPuts {
		t.Fatalf("drained queue holds segments: %d gets, %d puts", st.PayloadGets, st.PayloadPuts)
	}
}

// TestDatapathPoolBalance asserts the arena's books close: after the
// session releases its retransmit buffers, every payload Buf the pool
// handed out has come back (gets == puts), and likewise for the chunk
// pool behind Outgoing/RecycleOutgoing. A leak here means a record
// escaped the refcount protocol.
func TestDatapathPoolBalance(t *testing.T) {
	p, id := newDatapathPair(t, Config{EnableFailover: true})
	// Buffered delivery: the receive queue's segments come from the same
	// arena as the retransmit copies, and count in the same books.
	p.receiver.DeliverData = nil
	payload := make([]byte, datapathBenchBytes)
	sink := make([]byte, datapathBenchBytes*3/4) // the reader lags the writer
	for i := 0; i < 64; i++ {
		if _, err := p.sender.Write(id, payload); err != nil {
			t.Fatal(err)
		}
		p.shuttle(t)
		if _, err := p.receiver.Read(id, sink); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.receiver.PoolStats(); st.PayloadGets == st.PayloadPuts {
		t.Fatal("a 1 MiB backlog holds no pooled segment: the test no longer counts the receive queue")
	}
	for p.receiver.Readable(id) > 0 {
		if _, err := p.receiver.Read(id, sink); err != nil {
			t.Fatal(err)
		}
	}
	p.sender.ReleaseBuffers()
	p.receiver.ReleaseBuffers()
	for _, s := range []struct {
		name string
		sess *Session
	}{{"sender", p.sender}, {"receiver", p.receiver}} {
		st := s.sess.PoolStats()
		if st.PayloadGets != st.PayloadPuts {
			t.Errorf("%s payload pool unbalanced: %d gets, %d puts",
				s.name, st.PayloadGets, st.PayloadPuts)
		}
		if st.ChunkGets != st.ChunkPuts {
			t.Errorf("%s chunk pool unbalanced: %d gets, %d puts",
				s.name, st.ChunkGets, st.ChunkPuts)
		}
	}
}
