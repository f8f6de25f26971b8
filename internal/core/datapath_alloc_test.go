package core

import (
	"testing"
)

// These tests are the datapath pool's acceptance gate (DESIGN.md §16):
// once the buffer arena, byte queues, and scratch fields are warm, a
// steady-state 64 KiB send or receive op must not allocate at all — on
// one path with failover off or on, and over two coupled paths, whose
// sends go through the path scheduler and whose received records half
// park in the reorder heap. A regression here means a buffer escaped
// the pool or a hot-path struct started heap-escaping again.

func TestDatapathSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are nondeterministic")
	}
	for _, tc := range datapathVariants {
		t.Run(tc.name, func(t *testing.T) {
			p := newDatapathPair(t, tc.cfg, tc.paths)
			payload := make([]byte, datapathBenchBytes)
			op := func() {
				p.write(t, payload)
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
	for _, tc := range datapathVariants {
		t.Run(tc.name, func(t *testing.T) {
			r := newRecvReplay(t, tc.cfg, tc.paths)
			for i := 0; i < 32; i++ {
				r.op()
			}
			if avg := testing.AllocsPerRun(100, r.op); avg != 0 {
				t.Fatalf("steady-state receive: %.2f allocs/op, want 0", avg)
			}
		})
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

// TestDatapathPoolBalance asserts the books close: after the sessions
// release what they retain, every Buf handed out has come back
// (gets == puts), and likewise for the chunks behind NextChunk /
// RecycleOutgoing. A leak here means a record escaped the ownership
// rules: Bufs the receive queues and the reorder heap kept, records
// retained in chunks or moved into Bufs.
func TestDatapathPoolBalance(t *testing.T) {
	for _, tc := range datapathVariants[1:] {
		t.Run(tc.name, func(t *testing.T) {
			p := newDatapathPair(t, tc.cfg, tc.paths)
			// Buffered delivery: the receive queues keep Bufs, and count
			// in the same books as the retained records.
			p.receiver.DeliverData, p.receiver.DeliverCoupled = nil, nil
			payload := make([]byte, datapathBenchBytes)
			sink := make([]byte, datapathBenchBytes*3/4) // the reader lags the writer
			read := func() int {
				if len(p.streams) > 1 {
					return p.receiver.ReadCoupled(sink)
				}
				n, err := p.receiver.Read(p.streams[0], sink)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			for i := 0; i < 64; i++ {
				p.write(t, payload)
				p.shuttle(t)
				read()
			}
			if st := p.receiver.PoolStats(); st.PayloadGets == st.PayloadPuts {
				t.Fatal("a 1 MiB backlog holds no pooled Buf: the test no longer counts the receive queue")
			}
			for read() > 0 {
			}
			p.sender.ReleaseBuffers()
			p.receiver.ReleaseBuffers()
			for _, s := range []struct {
				name string
				sess *Session
			}{{"sender", p.sender}, {"receiver", p.receiver}} {
				st := s.sess.PoolStats()
				if st.PayloadGets != st.PayloadPuts {
					t.Errorf("%s Buf books unbalanced: %d gets, %d puts",
						s.name, st.PayloadGets, st.PayloadPuts)
				}
				if st.ChunkGets != st.ChunkPuts {
					t.Errorf("%s chunk books unbalanced: %d gets, %d puts",
						s.name, st.ChunkGets, st.ChunkPuts)
				}
			}
		})
	}
}
