// Flow-control integration tests: the wrapper's receive-buffer
// backpressure over real sockets, and the chaos case the bounds exist
// for — one of three coupled paths stalling mid-transfer while both
// peers' memory stays capped and goodput continues.
package tcpls

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"runtime"
	"testing"
	"time"

	"tcpls/internal/netem"
)

// TestRecvBackpressureBoundsMemory writes far more than the receiver's
// configured buffer while the receiving application sits idle. The
// readLoop must park (closing the TCP window) instead of buffering the
// whole transfer or killing the session with ErrRecvBufferFull, and the
// transfer must complete byte-exact once the reader drains.
func TestRecvBackpressureBoundsMemory(t *testing.T) {
	const (
		recvCap = 256 << 10
		total   = 4 << 20
	)
	started := make(chan *Session, 1)
	release := make(chan struct{})
	gotHash := make(chan [32]byte, 1)
	srv := startChaosServer(t, &Config{MaxRecvBufferBytes: recvCap}, func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			return
		}
		started <- sess
		<-release // sit on the data: backpressure, not reading
		h := sha256.New()
		if _, err := io.Copy(h, st); err != nil {
			return
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		gotHash <- sum
	})

	sess, err := Dial("tcp", srv.ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}

	writeDone := make(chan error, 1)
	h := sha256.New()
	go func() {
		chunk := make([]byte, 64<<10)
		for sent := 0; sent < total; sent += len(chunk) {
			for j := range chunk {
				chunk[j] = byte(sent + j)
			}
			h.Write(chunk)
			if _, err := st.Write(chunk); err != nil {
				writeDone <- err
				return
			}
		}
		writeDone <- st.Close()
	}()

	var ssess *Session
	select {
	case ssess = <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("server never accepted the stream")
	}

	// Give backpressure time to bite, then check the receiver is holding
	// a bounded buffer — not the whole 4 MiB — and reports it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := ssess.Snapshot()
		if m.FlowctlLimits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("receive buffer never hit its cap (buffered %d)", m.Stats.BytesReceived)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The readLoop parks right after the chunk that crossed the cap, so
	// the buffered high-water mark is cap + one socket read (readBufLen).
	if buffered := int(ssess.Snapshot().BytesReceived); buffered > recvCap+readBufLen {
		t.Fatalf("receiver buffered %d bytes against a %d cap", buffered, recvCap)
	}

	close(release) // reader drains; the parked readLoop must wake
	if err := <-writeDone; err != nil {
		t.Fatalf("writer failed under backpressure: %v", err)
	}
	var want [32]byte
	copy(want[:], h.Sum(nil))
	select {
	case got := <-gotHash:
		if got != want {
			t.Fatalf("transfer corrupted: hash %x, want %x", got, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server never finished reading after release")
	}
}

// TestChaosStalledPathBoundedMemory is the acceptance test for the
// memory bounds: a coupled upload spread over three shaped relay paths,
// one of which freezes mid-record partway in. The stalled path pins the
// sender's window, so the writer parks instead of the receiver's reorder
// heap growing; the UserTimeout fails the silent path alone, and its
// replay fills the gap. Both peers' buffers stay within one window while
// the full transfer lands byte-exact.
func TestChaosStalledPathBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real time")
	}
	baseGoroutines := runtime.NumGoroutine()

	const (
		total  = 4 << 20
		window = 256 << 10
	)
	gotHash := make(chan [32]byte, 1)
	scfg := &Config{
		EnableFailover:  true,
		AckPeriod:       4,
		UserTimeout:     time.Second,
		MaxReorderBytes: window, // the limit an honest sender never reaches
	}
	srv := startChaosServer(t, scfg, func(sess *Session) {
		// Three coupled streams (tagged A/B/C) and one result stream
		// (tagged 'R'); accept order races across paths, so classify by
		// tag.
		var res *Stream
		for i := 0; i < 4; i++ {
			st, err := sess.AcceptStream(context.Background())
			if err != nil {
				return
			}
			tag := make([]byte, 1)
			if _, err := st.Read(tag); err != nil {
				return
			}
			if tag[0] == 'R' {
				res = st
				continue
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
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		gotHash <- sum
		res.Write(sum[:])
		res.Close()
	})

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
		ServerName:         "test.server",
		EnableFailover:     true,
		AckPeriod:          4,
		UserTimeout:        time.Second,
		MaxRetransmitBytes: window,
	}
	sess, err := Dial("tcp", relays[0].Addr(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	conns := []uint32{0}
	for _, r := range relays[1:] {
		id, err := sess.JoinPath("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, id)
	}
	var streams []*Stream
	for i, cid := range conns {
		st, err := sess.OpenStreamOn(cid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write([]byte{'A' + byte(i)}); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	if err := sess.Couple(streams...); err != nil {
		t.Fatal(err)
	}
	res, err := sess.OpenStreamOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Write([]byte{'R'}); err != nil {
		t.Fatal(err)
	}
	// Nothing more goes out on res; the FIN prompts a final ack so the
	// record doesn't hold a connection "active" into the user timeout.
	res.Close()

	writeDone := make(chan error, 1)
	wantHash := make(chan [32]byte, 1)
	go func() {
		h := sha256.New()
		chunk := make([]byte, 32<<10)
		for i, sent := 0, 0; sent < total; i++ {
			for j := range chunk {
				chunk[j] = byte(i + j)
			}
			h.Write(chunk)
			if _, err := sess.WriteCoupled(chunk); err != nil {
				writeDone <- err
				return
			}
			sent += len(chunk)
			time.Sleep(2 * time.Millisecond) // span the stall window
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		wantHash <- sum
		writeDone <- nil
	}()

	// Freeze the middle path mid-transfer: sockets stay open, bytes stop.
	time.Sleep(150 * time.Millisecond)
	relays[1].Stall()

	select {
	case err := <-writeDone:
		if err != nil {
			t.Fatalf("coupled writer: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("writer stuck: goodput did not survive the stall")
	}
	want := <-wantHash
	// Finish the coupled streams: the FINs trigger final acks, draining
	// the retransmit buffers so idle connections stop counting as
	// "active" for the user timeout.
	for _, st := range streams {
		st.Close()
	}
	select {
	case got := <-gotHash:
		if got != want {
			t.Fatalf("transfer corrupted: server hash %x, want %x", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never finished the coupled read")
	}
	// Round-trip the hash on the result stream too: the control path must
	// also have survived the stall.
	echo := make([]byte, sha256.Size)
	if _, err := io.ReadFull(res, echo); err != nil {
		t.Fatalf("result stream after stall: %v", err)
	}
	if !bytes.Equal(echo, want[:]) {
		t.Fatalf("result stream echoed %x, want %x", echo, want)
	}

	// Memory bounds, the point of the exercise. The sender parked at its
	// window: the receiver's heap stayed below one window, its limit
	// never tripped, and the silent path alone timed out.
	srv.mu.Lock()
	ssess := srv.ss[0]
	srv.mu.Unlock()
	sm := ssess.Snapshot()
	cm := sess.Snapshot()
	if cm.FlowctlLimits < 1 {
		t.Fatalf("the sender never parked at its window (retransmit peak %d, window %d)",
			cm.RetransmitBytesPeak, window)
	}
	if sm.FlowctlLimits != 0 {
		t.Fatalf("the receiver's reorder limit tripped %d times", sm.FlowctlLimits)
	}
	if sm.ReorderBytesPeak >= window {
		t.Fatalf("reorder peak %d: not bounded by the %d window", sm.ReorderBytesPeak, window)
	}
	if sm.ReorderBytes != 0 {
		t.Fatalf("reorder heap still holds %d bytes after a complete transfer", sm.ReorderBytes)
	}
	if cm.RetransmitBytesPeak > window {
		t.Fatalf("sender retransmit peak %d past its %d window", cm.RetransmitBytesPeak, window)
	}
	if cm.ConnFailures != 1 {
		t.Fatalf("%d connections failed, want the stalled one alone", cm.ConnFailures)
	}
	for _, c := range cm.Conns {
		if c.Failed != (c.ID == conns[1]) {
			t.Fatalf("conn %d failed = %v: want only the stalled conn %d failed", c.ID, c.Failed, conns[1])
		}
	}
	t.Logf("bounded: reorder peak %d, retransmit peak %d (window %d), flowctl parks %d, solicits %d",
		sm.ReorderBytesPeak, cm.RetransmitBytesPeak, window, cm.FlowctlLimits, cm.AckSolicits)

	relays[1].Unstall()
	sess.Close()
	srv.Close()
	for _, r := range relays {
		r.Close()
	}
	checkGoroutines(t, baseGoroutines)
}
