package tcpls

import (
	"bytes"
	"crypto/rand"
	"io"
	"sync"
	"testing"
	"time"
)

// Regression tests for the write path's bookkeeping (meaningful under
// -race, which CI uses for this package). Every send path ends in
// flushLocked, which seals and signals; each connection's writeLoop is
// the only caller of NextChunk for it and settles every chunk it pulled
// (settleLocked) in one critical section:
//
//  1. The failure bookkeeping — drop stamps and recycles, the failed
//     flag, ReportConnFailed and the events — must be one critical
//     section. Split in two, a flush racing into the gap saw a conn the
//     engine did not yet know was dead and mis-stamped its spans.
//     TestRaceFailoverDuringConcurrentFlush hammers that window: bulk
//     traffic, concurrent flushers, and a mid-transfer path kill.
//
//  2. A failed conn's chunks are pulled and dropped by its writer and
//     nowhere else, and a closing session's writers run the engine dry
//     before they exit. TestWriteAccountingClosure asserts the books
//     close: chunk gets == puts, payload gets == puts, and zero pending
//     span batches once Close has returned.

func TestRaceFailoverDuringConcurrentFlush(t *testing.T) {
	ln := startServer(t, &Config{EnableFailover: true}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 1<<20)
	rand.Read(data)

	var wg sync.WaitGroup
	wg.Add(2)
	// Writer: keeps the engine flushing from this goroutine while the
	// path dies underneath it. Writes retry: between the kill and the
	// failover replay a write can bounce off the dying conn.
	go func() {
		defer wg.Done()
		defer st.Close()
		deadline := time.Now().Add(10 * time.Second)
		for off := 0; off < len(data); {
			n, werr := st.Write(data[off : off+min(16<<10, len(data)-off)])
			off += n
			if werr != nil {
				if time.Now().After(deadline) {
					t.Errorf("write never recovered: %v", werr)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	// Concurrent flusher: Ping flushes from a third goroutine, racing the
	// writer's flushes against the failure bookkeeping in settleLocked
	// and readLoop.
	stopPing := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopPing:
				return
			default:
				sess.Ping(1, 50*time.Millisecond)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// Mid-transfer, hard-kill the initial connection.
	time.Sleep(20 * time.Millisecond)
	sess.mu.Lock()
	pc0 := sess.pathConnLocked(0)
	sess.mu.Unlock()
	pc0.nc.Close()

	got := make([]byte, len(data))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatalf("echo read after failover: %v", err)
	}
	close(stopPing)
	wg.Wait()
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted across failover under concurrent flush")
	}
}

func TestWriteAccountingClosure(t *testing.T) {
	ln := startServer(t, &Config{EnableFailover: true}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10)
	rand.Read(payload)
	if _, err := st.Write(payload); err != nil {
		t.Fatal(err)
	}

	// Kill one path mid-session so its writer's drop path runs, then
	// finish the echo on the survivor and close.
	sess.mu.Lock()
	pc0 := sess.pathConnLocked(0)
	sess.mu.Unlock()
	pc0.nc.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := st.Write(payload); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never recovered onto the joined path")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st.Close()
	if _, err := io.Copy(io.Discard, st); err != nil {
		t.Fatalf("drain echo: %v", err)
	}
	sess.Close()

	sess.mu.Lock()
	ps := sess.engine.PoolStats()
	pending := sess.engine.PendingWriteBatches()
	sess.mu.Unlock()
	if ps.ChunkGets != ps.ChunkPuts {
		t.Errorf("chunk pool unbalanced after close: %d gets, %d puts", ps.ChunkGets, ps.ChunkPuts)
	}
	if ps.PayloadGets != ps.PayloadPuts {
		t.Errorf("payload pool unbalanced after close: %d gets, %d puts", ps.PayloadGets, ps.PayloadPuts)
	}
	if pending != 0 {
		t.Errorf("%d Outgoing chunks never resolved to written/dropped", pending)
	}
}
