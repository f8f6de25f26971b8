package tcpls

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"tcpls/internal/resume"
)

// TestTicketsSurviveListenerRestart is the key-file contract at the API
// level: a ticket issued by one listener resumes against a different
// listener process-equivalent (fresh Listener, same key file).
func TestTicketsSurviveListenerRestart(t *testing.T) {
	keyPath := filepath.Join(t.TempDir(), "ticket.keys")
	ks1, err := OpenTicketKeyStore(keyPath, []byte("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	ln1 := startServer(t, &Config{TicketKeys: ks1}, echoHandler)

	sess1, err := Dial("tcp", ln1.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	ticket := waitTicket(t, sess1)
	sess1.Close()
	ln1.Close()

	// "Restart": a brand-new listener opens the same key file.
	ks2, err := OpenTicketKeyStore(keyPath, []byte("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	ln2 := startServer(t, &Config{TicketKeys: ks2}, echoHandler)
	sess2, err := Dial("tcp", ln2.Addr().String(), &Config{
		ServerName: "test.server",
		Ticket:     ticket,
	})
	if err != nil {
		t.Fatalf("resumed dial after restart: %v", err)
	}
	defer sess2.Close()
	st, err := sess2.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("resumed across restart")
	st.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo corrupted after restart resumption")
	}
}

// TestEarlyDataEndToEnd drives 0-RTT through the public API: the early
// bytes surface on the server as the first accepted stream, and the
// echoed reply reads back on the client's early stream.
func TestEarlyDataEndToEnd(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess1, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	ticket := waitTicket(t, sess1)
	sess1.Close()

	early := []byte("0-rtt request bytes")
	sess2, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Ticket:     ticket,
		EarlyData:  early,
	})
	if err != nil {
		t.Fatalf("0-RTT dial: %v", err)
	}
	defer sess2.Close()
	if !sess2.EarlyDataAccepted() {
		t.Fatal("first-use early data not accepted")
	}
	st, ok := sess2.EarlyStream()
	if !ok {
		t.Fatal("no early stream on the client")
	}
	got := make([]byte, len(early))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, early) {
		t.Fatalf("echo of early data = %q, want %q", got, early)
	}
}

// TestEarlyDataReplayRejected replays the same ticket (and therefore the
// same ticket nonce) twice: the second 0-RTT flight must be rejected by
// the strike register and fall back to 1-RTT — same bytes, one RTT later.
func TestEarlyDataReplayRejected(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess1, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	ticket := waitTicket(t, sess1)
	sess1.Close()

	early := []byte("replayable bytes")
	dial := func() *Session {
		t.Helper()
		s, err := Dial("tcp", ln.Addr().String(), &Config{
			ServerName: "test.server",
			Ticket:     ticket,
			EarlyData:  early,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	first := dial()
	defer first.Close()
	if !first.EarlyDataAccepted() {
		t.Fatal("first use rejected")
	}

	replay := dial()
	defer replay.Close()
	if replay.EarlyDataAccepted() {
		t.Fatal("replayed early data accepted — strike register failed")
	}
	// Lossless fallback: the bytes still arrive, via the 1-RTT resend.
	st, ok := replay.EarlyStream()
	if !ok {
		t.Fatal("no fallback stream")
	}
	got := make([]byte, len(early))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, early) {
		t.Fatal("fallback bytes corrupted")
	}
}

// TestEarlyDataPastReplayCapacity dials 0-RTT past the strike
// register's per-window capacity (resume.DefaultReplayCap in
// production, a small register here): the first capacity flights are
// accepted, every later one is refused and falls back to 1-RTT, and
// every reply still arrives byte-exact.
func TestEarlyDataPastReplayCapacity(t *testing.T) {
	const capacity, dials = 3, 8
	keys, err := NewTicketKeyStore()
	if err != nil {
		t.Fatal(err)
	}
	keys.replay = resume.NewReplay(time.Minute, capacity, time.Now())
	ln := startServer(t, &Config{TicketKeys: keys}, echoHandler)

	// One fresh ticket per dial: the register strikes each ticket nonce.
	tickets := make([]*ClientTicket, dials)
	for i := range tickets {
		sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = waitTicket(t, sess)
		sess.Close()
	}

	refused := 0
	for i, tk := range tickets {
		early := []byte(fmt.Sprintf("0-rtt request %d", i))
		sess, err := Dial("tcp", ln.Addr().String(), &Config{
			ServerName: "test.server",
			Ticket:     tk,
			EarlyData:  early,
		})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if !sess.EarlyDataAccepted() {
			refused++
		}
		st, ok := sess.EarlyStream()
		if !ok {
			t.Fatalf("dial %d: no early stream", i)
		}
		got := make([]byte, len(early))
		if _, err := io.ReadFull(st, got); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if !bytes.Equal(got, early) {
			t.Fatalf("dial %d: reply %q, want %q", i, got, early)
		}
		sess.Close()
	}
	if refused != dials-capacity {
		t.Fatalf("%d of %d 0-RTT flights refused, want %d", refused, dials, dials-capacity)
	}
	if _, rejected := keys.replay.Stats(); rejected != dials-capacity {
		t.Fatalf("register rejected %d flights, want %d", rejected, dials-capacity)
	}
}

// TestEarlyDataRefusedByBudget: a server with MaxEarlyData < 0 refuses
// all 0-RTT; the client must still resume and deliver at 1-RTT.
func TestEarlyDataRefusedByBudget(t *testing.T) {
	ln := startServer(t, &Config{MaxEarlyData: -1}, echoHandler)
	sess1, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	ticket := waitTicket(t, sess1)
	sess1.Close()

	early := []byte("refused flight")
	sess2, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Ticket:     ticket,
		EarlyData:  early,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	if sess2.EarlyDataAccepted() {
		t.Fatal("early data accepted despite negative budget")
	}
	st, ok := sess2.EarlyStream()
	if !ok {
		t.Fatal("no fallback stream")
	}
	got := make([]byte, len(early))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, early) {
		t.Fatal("fallback bytes corrupted")
	}
}

// TestJoinPathFastCarriesData: the single-flight join delivers its
// piggybacked bytes and the new connection carries the stream.
func TestJoinPathFastCarriesData(t *testing.T) {
	ln := startServer(t, &Config{EnableFailover: true}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName:     "test.server",
		EnableFailover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	payload := []byte("first-flight join payload")
	connID, st, err := sess.JoinPathFast("tcp", ln.Addr().String(), payload)
	if err != nil {
		t.Fatalf("fast join: %v", err)
	}
	if connID == 0 {
		t.Fatal("fast join reused the initial connection ID")
	}
	if st == nil {
		t.Fatal("fast join returned no stream for its payload")
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("fast-join echo = %q, want %q", got, payload)
	}
	// The stream rides the joined connection.
	if c, err := st.Conn(); err != nil || c != connID {
		t.Fatalf("stream on conn %d (err=%v), want %d", c, err, connID)
	}
}

// TestJoinPathFastWithoutFailoverFallsBack: with failover off and a
// payload at stake, JoinPathFast must take the lossless two-flight path.
func TestJoinPathFastWithoutFailoverFallsBack(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	payload := []byte("two-flight fallback payload")
	connID, st, err := sess.JoinPathFast("tcp", ln.Addr().String(), payload)
	if err != nil {
		t.Fatalf("fallback join: %v", err)
	}
	if st == nil {
		t.Fatal("no stream from fallback join")
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fallback join payload corrupted")
	}
	_ = connID
}

// TestTicketRotationReissuesOnUse: a ticket sealed under generation N
// still resumes after one rotation, and the session's fresh ticket is
// sealed under the new generation.
func TestTicketRotationReissuesOnUse(t *testing.T) {
	ks, err := NewTicketKeyStore()
	if err != nil {
		t.Fatal(err)
	}
	ln := startServer(t, &Config{TicketKeys: ks}, echoHandler)

	sess1, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	oldTicket := waitTicket(t, sess1)
	sess1.Close()

	if err := ks.Rotate(); err != nil {
		t.Fatal(err)
	}

	sess2, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Ticket:     oldTicket,
	})
	if err != nil {
		t.Fatalf("resume with N-1 ticket: %v", err)
	}
	defer sess2.Close()
	// The resumed session gets a fresh ticket under the new generation.
	newTicket := waitTicket(t, sess2)
	if bytes.Equal(newTicket.Ticket, oldTicket.Ticket) {
		t.Fatal("ticket not reissued on use")
	}
	// Prove it actually resumed (no cert exchange) by round-tripping data.
	st, err := sess2.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("ok"))
	if _, err := io.ReadFull(st, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}

	// Two more rotations age the original generation out entirely: the
	// old ticket now falls back to a full handshake, not an error.
	ks.Rotate()
	ks.Rotate()
	sess3, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Ticket:     oldTicket,
	})
	if err != nil {
		t.Fatalf("aged-out ticket must fall back, got: %v", err)
	}
	sess3.Close()
}

// TestEarlyStreamAcceptOrder: the injected early stream is also the
// first stream AcceptStream delivers, before any 1-RTT stream.
func TestEarlyStreamAcceptOrder(t *testing.T) {
	type firstStream struct {
		data []byte
		err  error
	}
	firstCh := make(chan firstStream, 4)
	handler := func(sess *Session) {
		st, err := sess.AcceptStream(context.Background())
		if err != nil {
			firstCh <- firstStream{nil, err}
			return
		}
		buf := make([]byte, 64)
		n, _ := st.Read(buf)
		firstCh <- firstStream{buf[:n], nil}
		go echoHandler(sess)
		io.Copy(st, st)
	}
	ln := startServer(t, &Config{}, handler)
	sess1, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	ticket := waitTicket(t, sess1)
	sess1.Close()
	<-firstCh // drain the first session's handler slot

	early := []byte("early wins the race")
	sess2, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Ticket:     ticket,
		EarlyData:  early,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	select {
	case fs := <-firstCh:
		if fs.err != nil {
			t.Fatal(fs.err)
		}
		if !bytes.Equal(fs.data, early) {
			t.Fatalf("first accepted stream carried %q, want %q", fs.data, early)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server never saw the early stream")
	}
}

// TestZeroRTTDialsLoseNoReply dials 20,000 sessions in a row, each
// sending its request as 0-RTT early data under the ticket of the
// session before: every request is answered within 100 ms, the give-up
// after which bench/'s connect_churn resends over a full handshake, so
// none needs that retry. Skipped under -short and the race detector;
// scripts/resume-smoke.sh runs it.
func TestZeroRTTDialsLoseNoReply(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("20k dials: run without -short and -race")
	}
	const dials = 20000
	ks, err := NewTicketKeyStore()
	if err != nil {
		t.Fatal(err)
	}
	// A strike register that holds every nonce of the run, so each flight
	// is a first use the server accepts.
	ks.replay = resume.NewReplay(0, dials, time.Now())
	ln := startServer(t, &Config{TicketKeys: ks}, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	ticket := waitTicket(t, sess)
	sess.Close()

	req := make([]byte, 1024)
	got := make([]byte, len(req))
	retries, refused := 0, 0
	for i := 0; i < dials; i++ {
		binary.BigEndian.PutUint64(req, uint64(i))
		sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server", Ticket: ticket, EarlyData: req})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if !sess.EarlyDataAccepted() {
			refused++
		}
		st, ok := sess.EarlyStream()
		if !ok {
			t.Fatalf("dial %d: no early stream", i)
		}
		read := make(chan error, 1)
		go func() { _, err := io.ReadFull(st, got); read <- err }()
		select {
		case err := <-read:
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			if !bytes.Equal(got, req) {
				t.Fatalf("dial %d: reply differs from the request", i)
			}
		case <-time.After(100 * time.Millisecond):
			retries++
			sess.Close()
			<-read
		}
		if ticket = sess.ResumptionTicket(); ticket == nil {
			ticket = waitTicket(t, sess)
		}
		sess.Close()
	}
	if retries != 0 || refused != 0 {
		t.Fatalf("%d of %d early requests unanswered after 100 ms, %d flights refused", retries, dials, refused)
	}
}
