package tcpls

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"tcpls/internal/testutil"
)

func TestSessionDeadErrorUnwraps(t *testing.T) {
	err := error(&SessionDeadError{Attempts: 3, LastErr: io.ErrUnexpectedEOF})
	if !errors.Is(err, ErrSessionDead) {
		t.Fatal("SessionDeadError does not match ErrSessionDead")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal("SessionDeadError hides the last dial error")
	}
	var sde *SessionDeadError
	if !errors.As(err, &sde) || sde.Attempts != 3 {
		t.Fatal("errors.As lost the attempt count")
	}
}

func TestCandidateAddrs(t *testing.T) {
	s := &Session{}
	s.rememberAddrLocked("127.0.0.1:4443")
	s.rememberAddrLocked("127.0.0.1:4443") // duplicate collapses
	s.rememberAddrLocked("pipe")           // net.Pipe-style, not dialable
	s.rememberAddrLocked("127.0.0.2:5000")
	s.peerAddrs = []net.Addr{
		&net.TCPAddr{IP: net.ParseIP("10.0.0.9")},              // ADD_ADDR: port patched in
		&net.TCPAddr{IP: net.ParseIP("127.0.0.2"), Port: 5000}, // duplicate of a dialed addr
	}
	got := s.candidateAddrsLocked()
	want := []string{"127.0.0.1:4443", "127.0.0.2:5000", "10.0.0.9:4443"}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

// TestAutoFailoverEmitsEvents: a conn death with a live sibling emits
// EventConnDown then EventFailover (satellite: no more silent parking).
func TestAutoFailoverEmitsEvents(t *testing.T) {
	scfg := &Config{EnableFailover: true, AckPeriod: 4, NumCookies: 4}
	ln := startServer(t, scfg, echoHandler)
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
	if _, err := st.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}

	sess.mu.Lock()
	pc0 := sess.pathConnLocked(0)
	sess.mu.Unlock()
	pc0.nc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := make(map[SessionEventKind]bool)
	for !seen[EventFailover] {
		ev, err := sess.WaitEvent(ctx)
		if err != nil {
			t.Fatalf("waiting for failover events (saw %v): %v", seen, err)
		}
		seen[ev.Kind] = true
	}
	if !seen[EventConnDown] {
		t.Fatal("EventFailover emitted without EventConnDown")
	}

	// The failed-over stream still works.
	if _, err := st.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
}

// TestReconnectAfterTotalLoss: a single-path session loses its only
// connection; the recovery supervisor re-dials the remembered address
// through the join path and the stream resumes transparently.
func TestReconnectAfterTotalLoss(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	scfg := &Config{EnableFailover: true, AckPeriod: 4, NumCookies: 8}
	srv := startChaosServer(t, scfg, echoHandler)
	sess, err := Dial("tcp", srv.ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
		Reconnect: ReconnectConfig{
			MaxAttempts: 20,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Deadline:    10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("before")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}

	// Kill the only path.
	sess.mu.Lock()
	pc0 := sess.pathConnLocked(0)
	sess.mu.Unlock()
	pc0.nc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	seen := make(map[SessionEventKind]bool)
	for !seen[EventReconnected] {
		ev, err := sess.WaitEvent(ctx)
		if err != nil {
			t.Fatalf("waiting for reconnection (saw %v): %v", seen, err)
		}
		seen[ev.Kind] = true
	}
	for _, k := range []SessionEventKind{EventConnDown, EventReconnecting} {
		if !seen[k] {
			t.Fatalf("reconnected without %v", k)
		}
	}

	if _, err := st.Write([]byte("after!")); err != nil {
		t.Fatalf("write after reconnect: %v", err)
	}
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatalf("read after reconnect: %v", err)
	}
	if string(buf) != "after!" {
		t.Fatalf("echo after reconnect = %q", buf)
	}

	// Reconnection must not strand supervisor or I/O goroutines.
	sess.Close()
	srv.Close()
	testutil.CheckGoroutines(t, baseGoroutines)
}

// TestReconnectDisabledDiesWithErrSessionDead: with the supervisor
// disabled, total path loss parks until the deadline and then every
// blocked or new call reports the typed terminal error.
func TestReconnectDisabledDiesWithErrSessionDead(t *testing.T) {
	scfg := &Config{EnableFailover: true, AckPeriod: 4, NumCookies: 4}
	ln := startServer(t, scfg, echoHandler)
	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4,
		Reconnect: ReconnectConfig{Disabled: true, Deadline: 400 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}

	sess.mu.Lock()
	pc0 := sess.pathConnLocked(0)
	sess.mu.Unlock()
	pc0.nc.Close()

	start := time.Now()
	_, rerr := st.Read(buf) // blocks until the deadline declares death
	if !errors.Is(rerr, ErrSessionDead) {
		t.Fatalf("blocked Read after budget exhaustion = %v, want ErrSessionDead", rerr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("death took %v, deadline was 400ms", elapsed)
	}
	if _, werr := st.Write([]byte("y")); !errors.Is(werr, ErrSessionDead) {
		t.Fatalf("Write on dead session = %v, want ErrSessionDead", werr)
	}
	if _, oerr := sess.OpenStream(); !errors.Is(oerr, ErrSessionDead) {
		t.Fatalf("OpenStream on dead session = %v, want ErrSessionDead", oerr)
	}

	sawFailed := false
	for _, ev := range sess.Events() {
		if ev.Kind == EventRecoveryFailed {
			sawFailed = true
			if !errors.Is(ev.Err, ErrSessionDead) {
				t.Fatalf("EventRecoveryFailed.Err = %v", ev.Err)
			}
		}
	}
	if !sawFailed {
		t.Fatal("no EventRecoveryFailed emitted before death")
	}
}
