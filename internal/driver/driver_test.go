package driver

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/handshake"
	"tcpls/internal/record"
)

func secrets(t *testing.T) handshake.Secrets {
	suite, err := record.SuiteByID(record.TLSAES128GCMSHA256)
	if err != nil {
		t.Fatal(err)
	}
	return handshake.Secrets{Suite: suite, ClientApp: bytes.Repeat([]byte{1}, 32), ServerApp: bytes.Repeat([]byte{2}, 32)}
}

// manualClock is a virtual clock the test advances by hand.
type manualClock struct {
	now    time.Time
	timers []*timer
	rng    *rand.Rand
}

type timer struct {
	at  time.Time
	f   func()
	off bool
}

func newClock() *manualClock {
	return &manualClock{now: time.Unix(0, 0), rng: rand.New(rand.NewSource(1))}
}

func (m *manualClock) Now() time.Time { return m.now }

func (m *manualClock) After(d time.Duration, f func()) func() {
	t := &timer{at: m.now.Add(d), f: f}
	m.timers = append(m.timers, t)
	return func() { t.off = true }
}

func (m *manualClock) Int63n(n int64) int64 { return m.rng.Int63n(n) }

// advance moves the clock d forward, running what falls due in order.
func (m *manualClock) advance(d time.Duration) {
	end := m.now.Add(d)
	for {
		var next *timer
		for _, t := range m.timers {
			if !t.off && !t.at.After(end) && (next == nil || t.at.Before(next.at)) {
				next = t
			}
		}
		if next == nil {
			break
		}
		next.off = true
		if next.at.After(m.now) {
			m.now = next.at
		}
		next.f()
	}
	m.now = end
}

// host records what the driver reports.
type host struct {
	Nop
	clk        *manualClock
	events     []Event
	candidates []string
	dials      []time.Time
	onDial     func(c *Conn)
	ended      bool
	endErr     error
}

func (h *host) Lifecycle(ev Event)   { h.events = append(h.events, ev) }
func (h *host) Candidates() []string { return h.candidates }
func (h *host) End(err error)        { h.ended, h.endErr = true, err }
func (h *host) Dial(c *Conn) {
	h.dials = append(h.dials, h.clk.Now())
	if h.onDial != nil {
		h.onDial(c)
	}
}

func (h *host) count(k EventKind) (n int) {
	for _, ev := range h.events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// sink is a transport that swallows its connection's output.
type sink struct {
	Nop
	d *Driver
	c *Conn
}

func (s *sink) Wake() {
	batch := s.d.Pull(s.c, nil, 64)
	var n int64
	for _, b := range batch {
		n += int64(len(b))
	}
	s.d.Settle(s.c, batch, n, nil)
}

// wire is a transport that hands its connection's output to the peer
// driver; short makes its next write come up short and fail, held keeps
// the output waiting (a writer stuck on a full socket).
type wire struct {
	from, to   *Driver
	c, peer    *Conn
	short      bool
	held, busy bool
	shuts      []bool
}

func (w *wire) Wake() {
	if w.busy || w.held { // busy: the peer's reaction to our bytes woke us again; the loop below pulls it
		return
	}
	w.busy = true
	defer func() { w.busy = false }()
	for {
		batch := w.from.Pull(w.c, nil, 16)
		if len(batch) == 0 {
			return
		}
		if w.short {
			w.from.Settle(w.c, batch, int64(len(batch[0])/2), errors.New("short write"))
			continue
		}
		var n int64
		for _, b := range batch {
			n += int64(len(b))
			w.to.Receive(w.peer, b)
		}
		w.from.Settle(w.c, batch, n, nil)
	}
}

func (w *wire) Shut(graceful bool) { w.shuts = append(w.shuts, graceful) }

// pair connects a client and a server driver over n wires.
func pair(t *testing.T, cfg core.Config, n int) (cl, sv *Driver, ch *host, cw []*wire) {
	clk := newClock()
	sec := secrets(t)
	ch, sh := &host{clk: clk}, &host{clk: clk}
	cl = New(core.NewSession(core.RoleClient, sec, cfg), Config{Client: true, Failover: cfg.EnableFailover}, clk, ch, uint32(n))
	sv = New(core.NewSession(core.RoleServer, sec, cfg), Config{Failover: cfg.EnableFailover}, clk, sh, 0)
	for id := uint32(0); id < uint32(n); id++ {
		c, s := cl.Add(id, ""), sv.Add(id, "")
		w := &wire{from: cl, to: sv, c: c, peer: s}
		cw = append(cw, w)
		if err := cl.Start(c, w, nil); err != nil {
			t.Fatal(err)
		}
		if err := sv.Start(s, &wire{from: sv, to: cl, c: s, peer: c}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return cl, sv, ch, cw
}

// TestShortWriteFailsConnAndReplays: a write that comes up short settles
// its whole batch as dropped and fails the connection; the failover
// policy replays the records on the surviving connection and the peer
// reads every byte once.
func TestShortWriteFailsConnAndReplays(t *testing.T) {
	cl, sv, ch, cw := pair(t, core.Config{EnableFailover: true, AckPeriod: 4}, 2)
	var got []byte
	sv.Engine.DeliverData = func(_ uint32, p []byte) { got = append(got, p...) }
	id, err := cl.Engine.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("tcpls"), 40000)
	cw[0].short = true
	if _, err := cl.Engine.Write(id, data); err != nil {
		t.Fatal(err)
	}
	cl.Flush()

	if st := cl.Conn(0).State; st != Failed {
		t.Fatalf("conn 0 is %v after a short write, want failed", st)
	}
	if conn, _ := cl.Engine.StreamConn(id); conn != 1 {
		t.Fatalf("stream on conn %d, want the survivor 1", conn)
	}
	if ch.count(ConnDown) != 1 || ch.count(FailoverDone) != 1 {
		t.Fatalf("lifecycle %v: want one conn_down and one failover", ch.events)
	}
	if cl.Conn(0).lent != 0 || cl.Engine.PendingWriteBatches() != 0 {
		t.Fatal("the short batch was not settled")
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("peer read %d bytes, want %d", len(got), len(data))
	}
}

// TestDrainGoodbyeFollowsOutput: Drain queues the goodbyes only once the
// output is out, half-closes each connection after its goodbye, and ends
// the session when the peer's end of stream arrives.
func TestDrainGoodbyeFollowsOutput(t *testing.T) {
	cl, sv, ch, cw := pair(t, core.Config{}, 1)
	var got int
	sv.Engine.DeliverData = func(_ uint32, p []byte) { got += len(p) }
	id, _ := cl.Engine.CreateStream(0)
	cl.Engine.Write(id, make([]byte, 100000))
	cw[0].held = true
	cl.Drain(10 * time.Second)
	if cl.Quiet() || sv.Conn(0).State != Live || cl.Engine.QueuedBytes(0) == 0 {
		t.Fatal("goodbye queued or drain quiet while the output is still queued")
	}
	cw[0].held = false
	cw[0].Wake()
	if !cl.Quiet() || got != 100000 {
		t.Fatalf("quiet=%v with %d bytes delivered", cl.Quiet(), got)
	}
	if s := sv.Conn(0).State; s != Closing {
		t.Fatalf("server conn %v, want closing after the goodbye", s)
	}
	if len(cw[0].shuts) != 1 || !cw[0].shuts[0] || ch.ended {
		t.Fatalf("shuts %v, ended %v: want one half-close and a session waiting for the peer", cw[0].shuts, ch.ended)
	}
	cl.Down(cl.Conn(0), true) // the peer's end of stream
	if !ch.ended || ch.endErr != nil || cl.Conn(0).State != Closed || ch.count(ConnDown) != 0 {
		t.Fatalf("ended %v (%v), conn %v, events %v", ch.ended, ch.endErr, cl.Conn(0).State, ch.events)
	}
}

// TestDrainRecoversBrokenPath: a path that breaks while a drain still
// holds its output fails over to the other path, which gets its goodbye
// only after the replay — every byte arrives once.
func TestDrainRecoversBrokenPath(t *testing.T) {
	cl, sv, _, cw := pair(t, core.Config{EnableFailover: true, AckPeriod: 4}, 2)
	var got int
	sv.Engine.DeliverData = func(_ uint32, p []byte) { got += len(p) }
	id, _ := cl.Engine.CreateStream(0)
	cw[0].held = true
	cl.Engine.Write(id, make([]byte, 100000))
	cl.Drain(10 * time.Second)
	cw[0].held, cw[0].short = false, true
	cw[0].Wake()
	if got != 100000 || !cl.Quiet() || sv.Conn(1).State != Closing {
		t.Fatalf("%d bytes delivered, quiet %v, survivor %v", got, cl.Quiet(), sv.Conn(1).State)
	}
}

// supervised returns a client driver with one live connection, the
// given reconnect budget and cookies, and its host.
func supervised(t *testing.T, client bool, rc ReconnectConfig, cookies int) (*Driver, *host, *manualClock) {
	clk := newClock()
	h := &host{clk: clk, candidates: []string{"a", "b"}}
	d := New(core.NewSession(core.RoleClient, secrets(t), core.Config{EnableFailover: true}),
		Config{Client: client, Failover: true, Reconnect: &rc}, clk, h, 1)
	d.keyed = client // its first connection is up: redials join with a cookie
	for i := 0; i < cookies; i++ {
		d.Cookies = append(d.Cookies, [16]byte{byte(i + 1)})
	}
	c := d.Add(0, "a")
	if err := d.Start(c, &sink{d: d, c: c}, nil); err != nil {
		t.Fatal(err)
	}
	return d, h, clk
}

// TestSupervisorRoundsAndMaxAttempts: every round walks the candidates
// in order, one dial at a time; round n waits BaseDelay·2^(n-2), capped
// at MaxDelay and jittered into [d/2, d]; MaxAttempts rounds later the
// session dies with ErrSessionDead, and refused dials keep their cookies.
func TestSupervisorRoundsAndMaxAttempts(t *testing.T) {
	rc := ReconnectConfig{MaxAttempts: 4, BaseDelay: 40 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Deadline: 10 * time.Second}
	d, h, clk := supervised(t, true, rc, 5)
	var addrs []string
	h.onDial = func(c *Conn) {
		addrs = append(addrs, c.Addr)
		d.Abort(c, errors.New("refused"))
	}
	d.Down(d.Conn(0), false)
	clk.advance(time.Second)

	if len(h.dials) != 8 || len(addrs) != 8 || addrs[0] != "a" || addrs[1] != "b" {
		t.Fatalf("dials %v to %v, want 4 rounds of a then b", h.dials, addrs)
	}
	start := time.Unix(0, 0)
	for round, want := range []time.Duration{0, 40 * time.Millisecond, 80 * time.Millisecond, 100 * time.Millisecond} {
		at, prev := h.dials[2*round], start
		if round > 0 {
			prev = h.dials[2*round-1]
		}
		if gap := at.Sub(prev); gap < want/2 || gap > want {
			t.Fatalf("round %d after %v, want within [%v, %v]", round+1, gap, want/2, want)
		}
		if h.dials[2*round+1] != at {
			t.Fatal("a round's second dial waited")
		}
	}
	var dead *DeadError
	if !h.ended || !errors.As(h.endErr, &dead) || dead.Attempts != 4 || !errors.Is(h.endErr, ErrSessionDead) {
		t.Fatalf("end %v (%v), want a session dead after 4 rounds", h.ended, h.endErr)
	}
	if h.count(Reconnecting) != 4 || h.count(RecoveryFailed) != 1 || len(d.Cookies) != 5 || d.Cookies[0] != [16]byte{1} {
		t.Fatalf("events %v, %d cookies left", h.events, len(d.Cookies))
	}
}

// TestSupervisorDeadline: rounds stop at Deadline whatever attempts are
// left, and the session dies then.
func TestSupervisorDeadline(t *testing.T) {
	rc := ReconnectConfig{MaxAttempts: 100, BaseDelay: time.Second, MaxDelay: time.Second, Deadline: 3 * time.Second}
	d, h, clk := supervised(t, true, rc, 5)
	h.onDial = func(c *Conn) { d.Abort(c, errors.New("refused")) }
	d.Down(d.Conn(0), false)
	clk.advance(2900 * time.Millisecond)
	if h.ended {
		t.Fatal("died before the deadline")
	}
	clk.advance(200 * time.Millisecond)
	var dead *DeadError
	if !h.ended || !errors.As(h.endErr, &dead) || dead.Attempts < 3 || dead.Attempts >= 100 {
		t.Fatalf("end %v (%v), want death at the deadline", h.ended, h.endErr)
	}
}

// TestSupervisorServerGraceWait: a server never dials; it waits for the
// rejoin until Deadline and dies then.
func TestSupervisorServerGraceWait(t *testing.T) {
	d, h, clk := supervised(t, false, ReconnectConfig{}, 0)
	d.Down(d.Conn(0), false)
	clk.advance(DefaultReconnectDeadline - time.Millisecond)
	if h.ended || len(h.dials) != 0 {
		t.Fatalf("ended %v with %d dials during the grace wait", h.ended, len(h.dials))
	}
	clk.advance(10 * time.Millisecond)
	var dead *DeadError
	if !h.ended || !errors.As(h.endErr, &dead) || dead.Attempts != 0 {
		t.Fatalf("end %v (%v), want death after the grace wait", h.ended, h.endErr)
	}
}

// TestSupervisorStandsDown: a path that comes back by other means — here
// the peer's rejoin, started while a redial hangs — stands the supervisor
// down: Reconnected names it, and no round follows.
func TestSupervisorStandsDown(t *testing.T) {
	d, h, clk := supervised(t, true, ReconnectConfig{}, 5)
	var hanging *Conn
	h.onDial = func(c *Conn) { hanging = c }
	d.Down(d.Conn(0), false)
	clk.advance(time.Millisecond)
	if hanging == nil {
		t.Fatal("no redial")
	}
	c := d.Add(9, "")
	if err := d.Start(c, &sink{d: d, c: c}, nil); err != nil {
		t.Fatal(err)
	}
	if !d.Conn(9).entered || d.sup.on || h.count(Reconnected) != 1 || h.events[len(h.events)-1].Conn != 9 {
		t.Fatalf("events %v: want the supervisor stood down on conn 9", h.events)
	}
	d.Abort(hanging, errors.New("late"))
	clk.advance(time.Minute)
	if len(h.dials) != 1 || h.ended {
		t.Fatalf("%d dials, ended %v after standing down", len(h.dials), h.ended)
	}
}

// TestUserTimeoutFailsSilentConnOnce: the tick advances the engine every
// UserTimeout/4; a connection silent for longer fails, and only once.
func TestUserTimeoutFailsSilentConnOnce(t *testing.T) {
	clk := newClock()
	h := &host{clk: clk}
	cfg := core.Config{EnableFailover: true, UserTimeout: 200 * time.Millisecond}
	d := New(core.NewSession(core.RoleClient, secrets(t), cfg), Config{Client: true, Failover: true, UserTimeout: cfg.UserTimeout}, clk, h, 1)
	c := d.Add(0, "")
	d.Start(c, &sink{d: d, c: c}, nil)
	id, _ := d.Engine.CreateStream(0) // an open stream makes silence meaningful
	d.Engine.Write(id, []byte("x"))
	d.Flush()
	clk.advance(150 * time.Millisecond)
	if h.count(ConnDown) != 0 {
		t.Fatal("failed before the timeout")
	}
	clk.advance(time.Second)
	if h.count(ConnDown) != 1 || c.State != Failed {
		t.Fatalf("%d conn_down events, conn %v", h.count(ConnDown), c.State)
	}
	clk.advance(5 * time.Second)
	if h.count(ConnDown) != 1 {
		t.Fatalf("%d conn_down events for one silence", h.count(ConnDown))
	}
}

func TestReconnectDelayBounds(t *testing.T) {
	rc := ReconnectConfig{BaseDelay: 40 * time.Millisecond, MaxDelay: 200 * time.Millisecond}.WithDefaults()
	if d := rc.Delay(1, rand.Int63n); d != 0 {
		t.Fatalf("first attempt delay = %v, want immediate", d)
	}
	for attempt := 2; attempt <= 12; attempt++ {
		want := min(rc.BaseDelay<<(attempt-2), rc.MaxDelay)
		for trial := 0; trial < 20; trial++ {
			if d := rc.Delay(attempt, rand.Int63n); d < want/2 || d > want {
				t.Fatalf("attempt %d delay = %v, want in [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

// TestReconnectDelaySeedReproducible: with a seeded source the whole
// backoff sequence replays exactly — the determinism the fleet's virtual
// clock relies on — while distinct seeds diverge.
func TestReconnectDelaySeedReproducible(t *testing.T) {
	rc := ReconnectConfig{BaseDelay: 40 * time.Millisecond, MaxDelay: 200 * time.Millisecond}.WithDefaults()
	seq := func(seed int64) (out []time.Duration) {
		rng := rand.New(rand.NewSource(seed))
		for attempt := 1; attempt <= 10; attempt++ {
			out = append(out, rc.Delay(attempt, rng.Int63n))
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	for i := range a {
		want := min(rc.BaseDelay<<max(i-1, 0), rc.MaxDelay)
		if i > 0 && (a[i] < want/2 || a[i] > want) {
			t.Fatalf("seeded attempt %d delay = %v, want in [%v, %v]", i+1, a[i], want/2, want)
		}
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	if slicesEqual(a, c) {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func slicesEqual(a, b []time.Duration) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReconnectConfigDefaults(t *testing.T) {
	rc := ReconnectConfig{}.WithDefaults()
	if rc.MaxAttempts != DefaultReconnectAttempts || rc.BaseDelay != DefaultReconnectBase ||
		rc.MaxDelay != DefaultReconnectMax || rc.Deadline != DefaultReconnectDeadline {
		t.Fatalf("zero-value defaults wrong: %+v", rc)
	}
	// MaxDelay never undercuts BaseDelay.
	rc = ReconnectConfig{BaseDelay: time.Second, MaxDelay: time.Millisecond}.WithDefaults()
	if rc.MaxDelay != time.Second {
		t.Fatalf("MaxDelay not raised to BaseDelay: %v", rc.MaxDelay)
	}
}

// countingClock counts the readings of a side's clocks: the driver's and
// the engine's (core.SetClock).
type countingClock struct {
	*manualClock
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.manualClock.Now()
}

// TestSmallEchoReadsClockOncePerInput pins the clock readings of a
// small-record echo at the production defaults (tracer and write stamps
// on, failover off): on each side one for the receive, one to date the
// flush's record_sent, one for the settled write. The enqueue stamp is
// only taken with failover, which keeps it, and a flush that emits no
// event reads no clock.
func TestSmallEchoReadsClockOncePerInput(t *testing.T) {
	cl, sv, _, _ := pair(t, core.Config{}, 1)
	clocks := make([]*countingClock, 2)
	for i, d := range []*Driver{cl, sv} {
		c := &countingClock{manualClock: d.clock.(*manualClock)}
		clocks[i] = c
		d.clock = c
		d.Engine.SetClock(c.Now)
		d.Engine.SetTracer(func(core.TraceEvent) {})
		d.Engine.SetWriteStamping(true)
	}
	id, err := cl.Engine.CreateStream(0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Flush()
	buf := make([]byte, 1024)
	echo := func(size int) {
		if _, err := cl.Engine.Write(id, buf[:size]); err != nil {
			t.Fatal(err)
		}
		cl.Flush()
		n, err := sv.Engine.Read(id, buf)
		if err != nil || n != size {
			t.Fatalf("server read %d, %v; want %d", n, err, size)
		}
		sv.Engine.Write(id, buf[:n])
		sv.Flush()
		if n, err := cl.Engine.Read(id, buf); err != nil || n != size {
			t.Fatalf("client read %d, %v; want %d", n, err, size)
		}
	}
	echo(64) // the stream's first record opens it on the server
	const echoes = 100
	before := []int{clocks[0].reads, clocks[1].reads}
	for i := 0; i < echoes; i++ {
		echo(64 + i*9)
	}
	for i, side := range []string{"client", "server"} {
		if got := clocks[i].reads - before[i]; got != 3*echoes {
			t.Errorf("%s read its clocks %d times in %d echoes, want 3 an echo", side, got, echoes)
		}
	}
}

// TestJoinTakesItsCookieAtOpen: a join takes its cookie once its
// transport is connected, so a join still dialing does not hold one and
// a second join opens with it; the first then fails for want of one.
func TestJoinTakesItsCookieAtOpen(t *testing.T) {
	clk := newClock()
	hs := &handshake.Config{ServerName: "test.server", EnableTCPLS: true}
	d := New(core.NewSession(core.RoleClient, secrets(t), core.Config{}), Config{Client: true, Handshake: hs}, clk, &host{clk: clk}, 1)
	d.keyed, d.Cookies = true, [][16]byte{{1}}
	dialing, err := d.Join("a", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.Join("b", time.Time{})
	if err != nil {
		t.Fatalf("second join while the first is dialing: %v", err)
	}
	if err := d.Open(second, &sink{d: d, c: second}, false); err != nil || second.Cookie != [16]byte{1} {
		t.Fatalf("second join opened with %v, cookie %x", err, second.Cookie)
	}
	if err := d.Open(dialing, &sink{d: d, c: dialing}, false); !errors.Is(err, ErrNoCookies) || dialing.State != Failed {
		t.Fatalf("first join opened with %v in %v, want ErrNoCookies and failed", err, dialing.State)
	}
}
