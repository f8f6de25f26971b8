package tcpls

import (
	"io"
	"testing"
	"time"
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
		id, cookie = sess.sessID, sess.cookies[0]
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
