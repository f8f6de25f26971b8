package tcpls

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"io"
	mrand "math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// Tests for the pull-model send path: one goroutine at a time pulls a
// connection's chunks — its writer, or a caller writing its own small
// output (flushOwnLocked) — whoever flushed.

// TestOrderlyCloseEndsFailoverServerSession: Close on a two-path failover
// session must reach the server as a goodbye on both paths, so the server
// session ends at once and cleanly instead of waiting out its reconnect
// deadline.
func TestOrderlyCloseEndsFailoverServerSession(t *testing.T) {
	const size = 256 << 10
	type served struct {
		sess *Session
		got  int
	}
	servedCh := make(chan served, 1)
	ln := startServer(t, &Config{EnableFailover: true, AckPeriod: 4}, func(sess *Session) {
		sess.AcceptStream(context.Background())
		sess.AcceptStream(context.Background())
		buf := make([]byte, 64<<10)
		got := 0
		for got < size {
			n, err := sess.ReadCoupled(buf)
			if err != nil {
				break
			}
			got += n
		}
		servedCh <- served{sess, got}
	})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	conn2, err := sess.JoinPath("tcp", ln.Addr().String()) // returns once the server adopted it
	if err != nil {
		t.Fatal(err)
	}
	st1, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sess.OpenStreamOn(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Couple(st1, st2); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rand.Read(data)
	if _, err := sess.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	var srv served
	select {
	case srv = <-servedCh:
	case <-time.After(10 * time.Second):
		t.Fatal("server never finished reading")
	}
	if srv.got != size {
		t.Fatalf("server read %d of %d coupled bytes before the close", srv.got, size)
	}
	select {
	case <-srv.sess.Done():
	case <-time.After(time.Second):
		t.Fatalf("server session still open 1 s after the client's Close; events: %v", srv.sess.Events())
	}
	if err := srv.sess.Err(); err != nil {
		t.Errorf("server session ended with %v, want an orderly close", err)
	}
	for _, ev := range srv.sess.Events() {
		if ev.Kind == EventReconnecting || ev.Kind == EventRecoveryFailed {
			t.Errorf("server saw %v after an orderly close", ev.Kind)
		}
	}
}

// TestConcurrentFlushersKeepRecordOrder: whoever flushes and whoever
// writes, a connection's bytes must reach the wire in the order the
// engine sealed them. On one connection three streams write one small
// record at a time, which their callers mostly write themselves; a fourth
// writes 1 MiB blocks, which go to the connection's writer; a pinger and
// the peer's acks and echoes, arriving through readLoop, flush too. The
// server's echoes mix the same way in the other direction. A chunk
// overtaking another would put a stream's records out of sequence, which
// shows as failed decrypts and a stalled or corrupted echo.
func TestConcurrentFlushersKeepRecordOrder(t *testing.T) {
	const streams, perStream, block = 4, 512 << 10, 1 << 20
	srvCh := make(chan *Session, 1)
	ln := startServer(t, &Config{EnableFailover: true, AckPeriod: 4}, func(sess *Session) {
		srvCh <- sess
		echoHandler(sess)
	})
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	stopPing := make(chan struct{})
	var pinger sync.WaitGroup
	pinger.Add(1)
	go func() {
		defer pinger.Done()
		for {
			select {
			case <-stopPing:
				return
			default:
				sess.Ping(0, time.Second)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		st, err := sess.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		bulk := i == streams-1
		data := make([]byte, perStream)
		if bulk {
			data = make([]byte, 2*block)
		}
		rand.Read(data)
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			defer st.Close()
			rng := mrand.New(mrand.NewSource(seed))
			for off := 0; off < len(data); {
				n := min(64+rng.Intn(961), len(data)-off) // one small record a write
				if bulk {
					n = block
				}
				if _, err := st.Write(data[off : off+n]); err != nil {
					t.Errorf("stream %d write: %v", st.ID(), err)
					return
				}
				off += n
			}
		}(int64(i))
		go func() {
			defer wg.Done()
			got, err := io.ReadAll(st)
			if err != nil {
				t.Errorf("stream %d read: %v", st.ID(), err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("stream %d: echo differs from what was written (%d of %d bytes)", st.ID(), len(got), len(data))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("echo stalled; client stats %+v", sess.Stats())
	}
	close(stopPing)
	pinger.Wait()

	if st := sess.Stats(); st.FailedDecrypts != 0 {
		t.Errorf("client: %d failed decrypts", st.FailedDecrypts)
	}
	if st := (<-srvCh).Stats(); st.FailedDecrypts != 0 {
		t.Errorf("server: %d failed decrypts", st.FailedDecrypts)
	} else if st.RecordsReceived < 2000 {
		t.Errorf("server saw only %d records; the test wants a few thousand", st.RecordsReceived)
	}
}

// TestEarlyReplyAheadOfReadLoop: the server's reply to an accepted 0-RTT
// flight can be the first thing the client's engine reads after its
// handshake. Here it is already on the socket, in full, when the
// connection's reader starts: replyFirst holds the write that carries
// the client's Finished until the reply has arrived, and hands what it
// read to the first Read after. The early stream must exist by then, or
// the reply is dropped as a failed decrypt and the stream's reader waits
// for ever. It opens in the handshake's keying step, so its
// STREAM_ATTACH already rides the Finished's write.
func TestEarlyReplyAheadOfReadLoop(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess1, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	ticket := waitTicket(t, sess1)
	sess1.Close()

	early := make([]byte, 1000) // larger than any control record the server sends
	rand.Read(early)
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rc := &replyFirst{Conn: nc, size: len(early)}
	sess, err := Client(rc, &Config{ServerName: "test.server", Ticket: ticket, EarlyData: early})
	if err != nil {
		t.Fatal(err)
	}
	if rc.err != nil {
		t.Fatalf("waiting for the server's reply: %v", rc.err)
	}
	if !sess.EarlyDataAccepted() {
		t.Fatal("0-RTT flight not accepted")
	}
	if rc.records < 2 {
		t.Fatalf("the Finished's write carried %d records: the early stream opened after it", rc.records)
	}
	defer sess.Close()
	st, ok := sess.EarlyStream()
	if !ok {
		t.Fatal("no early stream")
	}
	got := make([]byte, len(early))
	read := make(chan error, 1)
	go func() { _, err := io.ReadFull(st, got); read <- err }()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("reply to the 0-RTT flight never became readable; stats %+v", sess.Stats())
	}
	if !bytes.Equal(got, early) {
		t.Fatal("reply differs from the early data")
	}
	if st := sess.Stats(); st.FailedDecrypts != 0 {
		t.Fatalf("%d records dropped as failed decrypts", st.FailedDecrypts)
	}
}

// replyFirst is a client socket whose second write — the one carrying
// the client's Finished, whose records it counts — returns only once the
// server's reply to the 0-RTT flight is read: the first record of at
// least size bytes. The next Read returns what it read.
type replyFirst struct {
	net.Conn
	size    int
	writes  int
	records int
	held    []byte
	err     error
}

func (r *replyFirst) Write(p []byte) (int, error) {
	n, err := r.Conn.Write(p)
	if r.writes++; r.writes != 2 || err != nil {
		return n, err
	}
	for rec := p; len(rec) >= 5; rec = rec[min(len(rec), 5+int(binary.BigEndian.Uint16(rec[3:5]))):] {
		r.records++
	}
	r.Conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer r.Conn.SetReadDeadline(time.Time{})
	buf := make([]byte, 4096)
	for hasReply := false; !hasReply; {
		k, rerr := r.Conn.Read(buf)
		if rerr != nil {
			r.err = rerr
			return n, nil
		}
		r.held = append(r.held, buf[:k]...)
		for rec := r.held; len(rec) >= 5; {
			m := 5 + int(binary.BigEndian.Uint16(rec[3:5]))
			if m > len(rec) {
				break
			}
			hasReply = hasReply || m >= r.size
			rec = rec[m:]
		}
	}
	return n, nil
}

func (r *replyFirst) Read(p []byte) (int, error) {
	if len(r.held) > 0 {
		n := copy(p, r.held)
		r.held = r.held[n:]
		return n, nil
	}
	return r.Conn.Read(p)
}
