package tcpls

import (
	"io"
	"net"
	"testing"
	"time"

	"tcpls/internal/handshake"
)

// TestListenerForgetsClosedSessions: the listener's session table holds
// an entry (the cookie set joins are checked against) per live session
// only. It used to keep every entry for the listener's lifetime, ~1.3 MB
// of dead session each; and a join presenting a closed session's cookie
// must still be turned away once the entry is gone.
func TestListenerForgetsClosedSessions(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	var id SessID
	var cookie Cookie
	for i := 0; i < 200; i++ {
		sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		st, err := sess.OpenStream()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if _, err := st.Write([]byte{1}); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if _, err := io.ReadFull(st, make([]byte, 1)); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		sess.mu.Lock()
		id, cookie = sess.sessID, Cookie(sess.drv.Cookies[0])
		sess.mu.Unlock()
		sess.Close()
	}
	// Server sessions end when the client's goodbye reaches them.
	live := func() int {
		ln.mu.Lock()
		defer ln.mu.Unlock()
		return len(ln.sessions)
	}
	for deadline := time.Now().Add(5 * time.Second); live() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 200 closed sessions still in the listener's table", live())
		}
	}
	if ln.ValidateJoin(id, cookie) {
		t.Fatal("join with a closed session's unused cookie was accepted")
	}
}

// abortAfterServerHello is a client connection that reads the
// ServerHello record and then hangs up.
type abortAfterServerHello struct {
	net.Conn
	read bool
}

func (a *abortAfterServerHello) Read(p []byte) (int, error) {
	if a.read {
		a.Conn.Close()
		return 0, io.ErrUnexpectedEOF
	}
	a.read = true
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(a.Conn, hdr); err != nil {
		return 0, err
	}
	rec := make([]byte, 5+(int(hdr[3])<<8|int(hdr[4])))
	copy(rec, hdr)
	if _, err := io.ReadFull(a.Conn, rec[5:]); err != nil {
		return 0, err
	}
	return copy(p, rec), nil
}

// TestListenerForgetsAbortedHandshake: the server mints a session's
// cookie state (OnSessionIssued) while it writes its first flight, so a
// client that hangs up after the ServerHello used to leave that entry in
// the listener's table for the listener's lifetime.
func TestListenerForgetsAbortedHandshake(t *testing.T) {
	ln := startServer(t, &Config{}, echoHandler)
	for i := 0; i < 20; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		tr := handshake.NewTransport(&abortAfterServerHello{Conn: nc})
		if _, err := handshake.Client(tr, &handshake.Config{ServerName: "test.server", EnableTCPLS: true}); err == nil {
			t.Fatal("aborted handshake completed")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln.mu.Lock()
		inFlight, entries := len(ln.hsConns), len(ln.sessions)
		ln.mu.Unlock()
		if inFlight == 0 {
			if entries != 0 {
				t.Fatalf("%d entries left by 20 handshakes that never finished", entries)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d handshakes still in flight", inFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
