// Accept-edge tests: the server handshake deadline, listener close
// behavior for in-flight handshakes, and the Config.Admission hooks
// the production server runtime (internal/server) plugs into.
package tcpls

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcpls/internal/testutil"
)

// startAdmissionServer starts a listener with a draining Accept loop,
// closing accepted sessions at cleanup.
func startAdmissionServer(t *testing.T, cfg *Config) *Listener {
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
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			sess, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { sess.Close() })
		}
	}()
	return ln
}

// TestHandshakeTimeoutStalledClient connects and then sends nothing.
// The server must cut the connection at Config.HandshakeTimeout — not
// pin a handshake goroutine until the client gives up — and the
// goroutine count must return to baseline.
func TestHandshakeTimeoutStalledClient(t *testing.T) {
	base := runtime.NumGoroutine()
	ln := startAdmissionServer(t, &Config{HandshakeTimeout: 200 * time.Millisecond})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	start := time.Now()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled handshake connection was not closed by the server")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled handshake lingered %v, want ~200ms deadline", elapsed)
	}
	nc.Close()
	ln.Close()
	testutil.CheckGoroutines(t, base)
}

// TestListenerCloseUnblocksHandshakes parks several connections
// mid-handshake (no bytes sent, 10s default deadline still far away)
// and closes the listener. The handshake goroutines must exit
// immediately rather than leak until their deadlines.
func TestListenerCloseUnblocksHandshakes(t *testing.T) {
	base := runtime.NumGoroutine()
	ln := startAdmissionServer(t, &Config{})

	var conns []net.Conn
	for i := 0; i < 4; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		conns = append(conns, nc)
	}
	// Let the per-connection handshake goroutines start and block in
	// the first read.
	time.Sleep(100 * time.Millisecond)
	ln.Close()
	testutil.CheckGoroutines(t, base)
	for _, nc := range conns {
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := nc.Read(make([]byte, 1)); err == nil {
			t.Fatal("mid-handshake connection still open after listener close")
		}
	}
}

// stubAdmission scripts the three AdmissionControl hooks and counts
// their invocations.
type stubAdmission struct {
	connErr    error
	allowJoin  bool
	sessionErr error

	conns, releases, joins, sessions atomic.Int32
}

func (a *stubAdmission) AdmitConn(remote net.Addr) (func(), error) {
	if a.connErr != nil {
		return nil, a.connErr
	}
	a.conns.Add(1)
	return func() { a.releases.Add(1) }, nil
}

func (a *stubAdmission) AdmitJoin(remote net.Addr) bool {
	a.joins.Add(1)
	return a.allowJoin
}

func (a *stubAdmission) AdmitSession(remote net.Addr) error {
	a.sessions.Add(1)
	return a.sessionErr
}

// TestAdmissionRejectsConn wires an AdmitConn that rejects everything:
// clients must fail cleanly (no silent hang) and no handshake may run.
func TestAdmissionRejectsConn(t *testing.T) {
	base := runtime.NumGoroutine()
	adm := &stubAdmission{connErr: errors.New("rejected"), allowJoin: true}
	ln := startAdmissionServer(t, &Config{Admission: adm})

	_, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err == nil {
		t.Fatal("Dial succeeded past a rejecting AdmitConn")
	}
	ln.Close()
	testutil.CheckGoroutines(t, base)
}

// TestAdmissionReleaseCalled checks the AdmitConn release hook fires
// exactly once per admitted connection, on both the success path and
// the join path.
func TestAdmissionReleaseCalled(t *testing.T) {
	adm := &stubAdmission{allowJoin: true}
	ln := startAdmissionServer(t, &Config{Admission: adm})

	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for adm.releases.Load() != adm.conns.Load() || adm.conns.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admits %d, releases %d; want equal and >= 2",
				adm.conns.Load(), adm.releases.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if adm.joins.Load() != 1 {
		t.Fatalf("AdmitJoin called %d times, want 1", adm.joins.Load())
	}
}

// TestAdmissionShedsSession has AdmitSession reject after a successful
// handshake: the session must never surface from Accept, its cookie
// state must be dropped (no joining back in), and the client must see
// its session die rather than hang.
func TestAdmissionShedsSession(t *testing.T) {
	adm := &stubAdmission{allowJoin: true, sessionErr: errors.New("shed")}
	cert, err := NewCertificate("test.server")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Listen("tcp", "127.0.0.1:0", &Config{Certificate: cert, Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			sess, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			sess.Close()
		}
	}()

	sess, err := Dial("tcp", ln.Addr().String(), &Config{
		ServerName: "test.server",
		Reconnect:  ReconnectConfig{Disabled: true, Deadline: 200 * time.Millisecond},
	})
	if err == nil {
		// The handshake may complete client-side before the server
		// sheds; the session must then die promptly.
		defer sess.Close()
		select {
		case <-sess.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("client session survived a server-side shed")
		}
	}
	if n := accepted.Load(); n != 0 {
		t.Fatalf("%d sessions surfaced from Accept despite AdmitSession rejection", n)
	}
	if n, _ := ln.acc.Len(); n != 0 {
		t.Fatalf("%d session entries (cookie state) retained after shed", n)
	}
}

// TestAdmissionRejectsJoin lets the initial handshake through but
// rejects the join attempt: JoinPath must fail and the server-side
// cookie must NOT be consumed (admission burns rate budget, not
// cookies).
func TestAdmissionRejectsJoin(t *testing.T) {
	adm := &stubAdmission{allowJoin: false}
	ln := startAdmissionServer(t, &Config{Admission: adm})

	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err == nil {
		t.Fatal("JoinPath succeeded past a rejecting AdmitJoin")
	}
	if adm.joins.Load() != 1 {
		t.Fatalf("AdmitJoin called %d times, want 1", adm.joins.Load())
	}
	if ln.acc.Cookies(sess.ID()) == 0 {
		t.Fatal("server cookie consumed by an admission-rejected join")
	}
}

// TestJoinRejectedTraced checks an admission-rejected join is stamped
// onto the target session's timeline: join_rejected must be observable
// in the server session's flight recorder, not just as a closed socket.
func TestJoinRejectedTraced(t *testing.T) {
	adm := &stubAdmission{allowJoin: false}
	cert, err := NewCertificate("test.server")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Listen("tcp", "127.0.0.1:0", &Config{Certificate: cert, Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *Session, 1)
	go func() {
		sess, err := ln.Accept()
		if err == nil {
			accepted <- sess
		}
	}()

	sess, err := Dial("tcp", ln.Addr().String(), &Config{ServerName: "test.server"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var srvSess *Session
	select {
	case srvSess = <-accepted:
		defer srvSess.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("server session never surfaced")
	}
	if _, err := sess.JoinPath("tcp", ln.Addr().String()); err == nil {
		t.Fatal("JoinPath succeeded past a rejecting AdmitJoin")
	}
	var buf bytes.Buffer
	if err := srvSess.DumpFlight(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "join_rejected") {
		t.Fatalf("flight recorder missing join_rejected:\n%s", buf.String())
	}
}
