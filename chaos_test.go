package tcpls

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"tcpls/internal/fault"
	"tcpls/internal/netem"
	"tcpls/internal/testutil"
)

// chaosMiB is the checksummed transfer size for the chaos test.
const chaosMiB = 4

// chaosServer is startServer plus session tracking, so the test can close
// every server-side session before the goroutine-leak check (their
// recovery supervisors otherwise outlive the test by the grace deadline).
type chaosServer struct {
	ln *Listener
	mu sync.Mutex
	ss []*Session
}

func startChaosServer(t *testing.T, cfg *Config, handler func(*Session)) *chaosServer {
	t.Helper()
	if cfg.Certificate == nil {
		cert, err := NewCertificate("test.server")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Certificate = cert
	}
	ln, err := Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := &chaosServer{ln: ln}
	t.Cleanup(cs.Close)
	go func() {
		for {
			sess, err := ln.Accept()
			if err != nil {
				return
			}
			cs.mu.Lock()
			cs.ss = append(cs.ss, sess)
			cs.mu.Unlock()
			go handler(sess)
		}
	}()
	return cs
}

func (cs *chaosServer) Close() {
	cs.ln.Close()
	cs.mu.Lock()
	ss := append([]*Session(nil), cs.ss...)
	cs.mu.Unlock()
	for _, s := range ss {
		s.Close()
	}
}

// checkGoroutines is the zero-leak gate for the fault-injection tests
// (shared with reconnect and telemetry tests via internal/testutil).
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	testutil.CheckGoroutines(t, base)
}

// TestChaosTransferSurvivesCascadeAndTotalLoss is the tentpole test: a
// 4 MiB checksummed transfer over three shaped relay paths while a fault
// schedule kills every path in turn — an RST, then a mid-record stall
// only the user timeout can detect, then a total-loss window that forces
// the recovery supervisor to re-dial through the join path. The transfer
// must be byte-exact and nothing may leak.
func TestChaosTransferSurvivesCascadeAndTotalLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real time")
	}
	baseGoroutines := runtime.NumGoroutine()

	scfg := &Config{
		EnableFailover: true,
		AckPeriod:      4,
		UserTimeout:    400 * time.Millisecond,
		NumCookies:     64,
	}
	srv := startChaosServer(t, scfg, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		h := sha256.New()
		if _, err := io.Copy(h, st); err != nil {
			return
		}
		st.Write(h.Sum(nil))
		st.Close()
	})

	// Three lossy shaped paths in front of the one real server.
	prof := netem.Profile{RateBps: 60e6, Delay: 2 * time.Millisecond}
	relays := make([]*netem.Relay, 3)
	for i := range relays {
		r, err := netem.NewRelay(srv.ln.Addr().String(), prof, prof)
		if err != nil {
			t.Fatal(err)
		}
		relays[i] = r
		defer r.Close()
	}

	ccfg := &Config{
		ServerName:     "test.server",
		EnableFailover: true,
		AckPeriod:      4,
		UserTimeout:    400 * time.Millisecond,
		Reconnect: ReconnectConfig{
			MaxAttempts: 100,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    150 * time.Millisecond,
			Deadline:    20 * time.Second,
		},
	}
	sess, err := Dial("tcp", relays[0].Addr(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", relays[1].Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.JoinPath("tcp", relays[2].Addr()); err != nil {
		t.Fatal(err)
	}
	// Engine conn ID -> relay index, for fault targeting. Conns born
	// after recovery are redials; their relay no longer matters.
	connRelay := map[uint32]int{0: 0, 1: 1, 2: 2}

	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}

	// Writer: 4 MiB in paced chunks so the transfer spans every fault
	// phase; hash computed on the way out. started closes once the first
	// chunk is accepted — the condition the fault schedule waits on
	// instead of a wall-clock sleep.
	wantHash := make(chan [32]byte, 1)
	writeErr := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		h := sha256.New()
		chunk := make([]byte, 128<<10)
		total := 0
		for i := 0; total < chaosMiB<<20; i++ {
			for j := range chunk {
				chunk[j] = byte(i + j)
			}
			h.Write(chunk)
			if _, err := st.Write(chunk); err != nil {
				writeErr <- fmt.Errorf("write at %d bytes: %w", total, err)
				return
			}
			if i == 0 {
				close(started)
			}
			total += len(chunk)
			time.Sleep(5 * time.Millisecond)
		}
		if err := st.Close(); err != nil {
			writeErr <- fmt.Errorf("stream close: %w", err)
			return
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		wantHash <- sum
		writeErr <- nil
	}()

	streamConn := func() uint32 {
		cid, err := st.Conn()
		if err != nil {
			t.Fatalf("stream lost its conn: %v", err)
		}
		return cid
	}
	// waitConnChange blocks on session lifecycle events (conn_down,
	// failover, ...) and rechecks the stream's home after each — no
	// polling loop, no sleep calibration: every path that moves a stream
	// also emits an event, so a wake-up always follows the move.
	waitConnChange := func(from uint32) uint32 {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		for {
			if cid := streamConn(); cid != from {
				return cid
			}
			if _, err := sess.WaitEvent(ctx); err != nil {
				t.Fatalf("stream never left conn %d: %v", from, err)
			}
		}
	}

	// Phase A — RST the path the stream is on once the transfer is
	// actually in flight; failover must move it.
	select {
	case <-started:
	case err := <-writeErr:
		t.Fatalf("writer died before first chunk: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("writer never produced its first chunk")
	}
	connA := streamConn()
	relays[connRelay[connA]].Run(fault.Fault{Kind: fault.Blackhole}, fault.Fault{Kind: fault.RST}) // refuse re-dials too
	connB := waitConnChange(connA)
	if connB == connA || connRelay[connB] == connRelay[connA] {
		t.Fatalf("failover went nowhere: conn %d -> %d", connA, connB)
	}
	t.Logf("phase A: RST relay %d, stream moved conn %d -> %d", connRelay[connA], connA, connB)

	// Phase B — stall the new path mid-record: sockets stay open, bytes
	// stop. Only the user timeout can detect this; the failover cascades.
	relays[connRelay[connB]].Run(fault.Fault{Kind: fault.Stall})
	connC := waitConnChange(connB)
	relays[connRelay[connB]].Run(fault.Fault{Kind: fault.Unstall})
	relays[connRelay[connB]].Run(fault.Fault{Kind: fault.Blackhole})
	if connRelay[connC] == connRelay[connB] || connRelay[connC] == connRelay[connA] {
		t.Fatalf("cascade landed on a dead relay: conn %d (relay %d)", connC, connRelay[connC])
	}
	t.Logf("phase B: stalled relay %d, cascade moved conn %d -> %d", connRelay[connB], connB, connC)

	// Phase C — total loss: a schedule RSTs the last live path, leaving
	// the session with nothing, then restores relay 0 so the recovery
	// supervisor's re-dial can land.
	lastRelay := relays[connRelay[connC]]
	lastRelay.Run(fault.Fault{Kind: fault.Blackhole}, fault.Fault{Kind: fault.RST})
	relay0Restore, _ := relays[0].Run(fault.Fault{At: 600 * time.Millisecond, Kind: fault.Restore})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	sawReconnecting := false
	for {
		ev, err := sess.WaitEvent(ctx)
		if err != nil {
			cancel()
			t.Fatalf("waiting for recovery (reconnecting seen: %v): %v", sawReconnecting, err)
		}
		if ev.Kind == EventReconnecting {
			sawReconnecting = true
		}
		if ev.Kind == EventReconnected {
			t.Logf("phase C: reconnected on conn %d after %d redial rounds", ev.Conn, ev.Attempt)
			break
		}
	}
	cancel()
	<-relay0Restore
	if !sawReconnecting {
		t.Fatal("EventReconnected without EventReconnecting")
	}

	// Phase D — drain the writer, then read the server's hash of what it
	// received over all the replays and re-dials.
	select {
	case err := <-writeErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writer stuck")
	}
	want := <-wantHash
	got := make([]byte, sha256.Size)
	readDone := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(st, got)
		readDone <- err
	}()
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("reading server hash: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server hash never arrived")
	}
	if [32]byte(got) != want {
		t.Fatalf("transfer corrupted: server hash %x, want %x", got, want)
	}
	t.Logf("phase D: %d MiB byte-exact across cascade + reconnect", chaosMiB)

	// Phase E — everything down, nothing left behind.
	sess.Close()
	srv.Close()
	for _, r := range relays {
		r.Close()
	}
	checkGoroutines(t, baseGoroutines)
}

// TestChaosTotalLossWithoutReconnectDies: same total-loss outage, but
// with the supervisor disabled the session must die with ErrSessionDead
// within its configured deadline — no hang, no leak.
func TestChaosTotalLossWithoutReconnectDies(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real time")
	}
	baseGoroutines := runtime.NumGoroutine()

	scfg := &Config{
		EnableFailover: true,
		AckPeriod:      4,
		UserTimeout:    400 * time.Millisecond,
		NumCookies:     8,
	}
	srv := startChaosServer(t, scfg, echoHandler)

	prof := netem.Profile{RateBps: 60e6, Delay: 2 * time.Millisecond}
	relays := make([]*netem.Relay, 3)
	for i := range relays {
		r, err := netem.NewRelay(srv.ln.Addr().String(), prof, prof)
		if err != nil {
			t.Fatal(err)
		}
		relays[i] = r
		defer r.Close()
	}

	sess, err := Dial("tcp", relays[0].Addr(), &Config{
		ServerName:     "test.server",
		EnableFailover: true,
		AckPeriod:      4,
		UserTimeout:    400 * time.Millisecond,
		Reconnect:      ReconnectConfig{Disabled: true, Deadline: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, r := range relays[1:] {
		if _, err := sess.JoinPath("tcp", r.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	for _, r := range relays {
		r.Run(fault.Fault{Kind: fault.Blackhole}, fault.Fault{Kind: fault.RST})
	}
	_, rerr := st.Read(buf)
	if !errors.Is(rerr, ErrSessionDead) {
		t.Fatalf("blocked Read after total loss = %v, want ErrSessionDead", rerr)
	}
	if elapsed := time.Since(start); elapsed > 6*time.Second {
		t.Fatalf("death took %v, deadline was 1s", elapsed)
	}

	sess.Close()
	srv.Close()
	for _, r := range relays {
		r.Close()
	}
	checkGoroutines(t, baseGoroutines)
}

// TestChaosServerPushOnStalledPath: the server opens a stream on a path
// that has just stalled, so the client never sees its ATTACH and has
// nothing of its own there to move. Only the server's user timeout sees
// the path die. Its notice makes the client pick a target and say so,
// and the server re-homes the stream there: the push arrives byte-exact.
func TestChaosServerPushOnStalledPath(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real time")
	}
	baseGoroutines := runtime.NumGoroutine()
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	push := make(chan struct{})
	srv := startChaosServer(t, &Config{
		EnableFailover: true,
		AckPeriod:      4,
		UserTimeout:    400 * time.Millisecond,
		NumCookies:     4,
	}, func(sess *Session) {
		select {
		case <-push:
		case <-sess.Done():
			return
		}
		st, err := sess.OpenStreamOn(0)
		if err != nil {
			return
		}
		st.Write(data)
		st.Close()
	})
	prof := netem.Profile{RateBps: 60e6, Delay: 2 * time.Millisecond}
	relays := make([]*netem.Relay, 2)
	for i := range relays {
		r, err := netem.NewRelay(srv.ln.Addr().String(), prof, prof)
		if err != nil {
			t.Fatal(err)
		}
		relays[i] = r
		defer r.Close()
	}
	sess, err := Dial("tcp", relays[0].Addr(), &Config{ServerName: "test.server", EnableFailover: true, AckPeriod: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	conn1, err := sess.JoinPath("tcp", relays[1].Addr())
	if err == nil {
		_, err = sess.Ping(conn1, 5*time.Second) // the server has adopted conn 1
	}
	if err != nil {
		t.Fatal(err)
	}

	relays[0].Run(fault.Fault{Kind: fault.Stall})
	close(push)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	st, err := sess.AcceptStream(ctx)
	if err != nil {
		t.Fatalf("the server's stream never reached the client: %v", err)
	}
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(st)
		got <- b
	}()
	select {
	case b := <-got:
		if !bytes.Equal(b, data) {
			t.Fatalf("client received %d of %d bytes pushed onto the stalled path", len(b), len(data))
		}
	case <-time.After(15 * time.Second):
		t.Fatal("push stuck on the stalled path")
	}

	sess.Close()
	srv.Close()
	for _, r := range relays {
		r.Close()
	}
	checkGoroutines(t, baseGoroutines)
}

// TestChaosJoinResumesTwoDeadPathsMerged: both paths of a coupled
// session die with records in flight on each, and a JoinPath resumes
// them. The client replays both paths' records onto the new connection
// in one pass ordered by aggregation sequence, so the server's reorder
// heap never parks one path's replay while it waits for the other's: its
// peak stays under a cap far smaller than either path's share.
func TestChaosJoinResumesTwoDeadPathsMerged(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real time")
	}
	baseGoroutines := runtime.NumGoroutine()
	const (
		total      = 2 << 20
		reorderCap = 64 << 10
		inFlight   = 256 << 10 // unacked on both paths together when they die
	)
	type outcome struct {
		sum  [32]byte
		peak int
	}
	done := make(chan outcome, 1)
	srv := startChaosServer(t, &Config{
		EnableFailover:  true,
		AckPeriod:       4,
		NumCookies:      4,
		MaxReorderBytes: reorderCap,
	}, func(sess *Session) {
		for i := 0; i < 2; i++ {
			st, err := sess.AcceptStream(context.Background())
			if err != nil {
				return
			}
			if _, err := st.Read(make([]byte, 1)); err != nil {
				return
			}
			if err := sess.Couple(st); err != nil {
				return
			}
		}
		h := sha256.New()
		buf := make([]byte, 64<<10)
		for received := 0; received < total; {
			n, err := sess.ReadCoupled(buf)
			if err != nil {
				return
			}
			h.Write(buf[:n])
			received += n
		}
		var o outcome
		copy(o.sum[:], h.Sum(nil))
		o.peak = sess.Snapshot().ReorderBytesPeak
		done <- o
	})
	prof := netem.Profile{RateBps: 60e6, Delay: 2 * time.Millisecond}
	relays := make([]*netem.Relay, 2)
	for i := range relays {
		r, err := netem.NewRelay(srv.ln.Addr().String(), prof, prof)
		if err != nil {
			t.Fatal(err)
		}
		relays[i] = r
		defer r.Close()
	}
	sess, err := Dial("tcp", relays[0].Addr(), &Config{
		ServerName:     "test.server",
		EnableFailover: true,
		AckPeriod:      4,
		Reconnect:      ReconnectConfig{Disabled: true, Deadline: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	conn1, err := sess.JoinPath("tcp", relays[1].Addr())
	if err == nil {
		_, err = sess.Ping(conn1, 5*time.Second)
	}
	if err != nil {
		t.Fatal(err)
	}
	var streams []*Stream
	for i, cid := range []uint32{0, conn1} {
		st, err := sess.OpenStreamOn(cid)
		if err == nil {
			_, err = st.Write([]byte{'A' + byte(i)})
		}
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	if err := sess.Couple(streams...); err != nil {
		t.Fatal(err)
	}

	// Freeze both paths before the first coupled byte, so every coupled
	// record sealed from here on is in flight on one of them.
	for _, r := range relays {
		r.Run(fault.Fault{Kind: fault.Stall})
	}
	want := make(chan [32]byte, 1)
	writeErr := make(chan error, 1)
	go func() {
		h := sha256.New()
		chunk := make([]byte, 32<<10)
		for i, sent := 0, 0; sent < total; i++ {
			for j := range chunk {
				chunk[j] = byte(i*3 + j)
			}
			h.Write(chunk)
			if _, err := sess.WriteCoupled(chunk); err != nil {
				writeErr <- err
				return
			}
			sent += len(chunk)
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		want <- sum
		writeErr <- nil
	}()
	for deadline := time.Now().Add(10 * time.Second); sess.Snapshot().RetransmitBytes < inFlight; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d bytes in flight on the stalled paths, want %d", sess.Snapshot().RetransmitBytes, inFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Both paths die in one event batch, as when a correlated outage trips
	// both user timeouts on the same tick. Behind the stalled relays the
	// server sees nothing, so the client alone resumes.
	sess.mu.Lock()
	for _, c := range sess.drv.Conns() {
		sess.engine.ReportConnFailed(c.ID)
	}
	sess.drv.Step()
	sess.mu.Unlock()
	if live := sess.Connections(); len(live) > 0 {
		t.Fatalf("conns %v still live", live)
	}
	if _, err := sess.JoinPath("tcp", srv.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-writeErr:
		if err != nil {
			t.Fatalf("coupled writer: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writer stuck after the join")
	}
	select {
	case o := <-done:
		if o.sum != <-want {
			t.Fatal("transfer corrupted across the merged resume")
		}
		if o.peak > reorderCap {
			t.Fatalf("server reorder heap peaked at %d bytes, cap %d: the resume interleaved the two paths' replays", o.peak, reorderCap)
		}
		t.Logf("server reorder peak %d bytes (cap %d)", o.peak, reorderCap)
	case <-time.After(30 * time.Second):
		t.Fatal("server never finished the coupled read")
	}

	sess.Close()
	srv.Close()
	for _, r := range relays {
		r.Close()
	}
	checkGoroutines(t, baseGoroutines)
}

// TestScheduleFileOverRelays runs testdata/rst-path0.jsonl, the schedule
// internal/simtcpls's TestScheduleFileOnTheVirtualClock runs on the
// virtual clock, over two relays, fault Path naming the relay: an RST
// on path 0 mid-transfer on a two-path session, which ends byte-exact
// after one failover onto path 1.
func TestScheduleFileOverRelays(t *testing.T) {
	f, err := os.Open("testdata/rst-path0.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sched, err := fault.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	ln := startServer(t, &Config{EnableFailover: true, AckPeriod: 4}, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		data, _ := io.ReadAll(st)
		got <- data
	})
	prof := netem.Profile{RateBps: 25_000_000, Delay: 10 * time.Millisecond}
	var relays []*netem.Relay
	for range 2 {
		r, err := netem.NewRelay(ln.Addr().String(), prof, prof)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		relays = append(relays, r)
	}
	sess, err := Dial("tcp", relays[0].Addr(), &Config{ServerName: "test.server", EnableFailover: true, AckPeriod: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", relays[1].Addr()); err != nil {
		t.Fatal(err)
	}
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for _, f := range sched {
		if _, err := relays[f.Path%len(relays)].Run(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Write(data); err != nil {
		t.Fatal(err)
	}
	st.Close()
	select {
	case d := <-got:
		snap := sess.Snapshot()
		if !bytes.Equal(d, data) || snap.ConnFailures != 1 || snap.Failovers != 1 {
			t.Fatalf("received %d of %d bytes (byte-exact %v), %d conn failures, %d failovers; want all, 1, 1",
				len(d), len(data), bytes.Equal(d, data), snap.ConnFailures, snap.Failovers)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server never read the transfer to its end")
	}
}
