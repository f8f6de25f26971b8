package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/driver"
	"tcpls/internal/health"
	"tcpls/internal/resume"
	"tcpls/internal/sim"
	"tcpls/internal/simtcpls"
	"tcpls/internal/telemetry"
)

// epoch anchors virtual time onto the wall-clock type the engine uses
// (the same anchor simtcpls uses internally).
var epoch = time.Unix(0, 0)

// Violation is one invariant breach found at campaign snapshot time.
type Violation struct {
	Session int // -1 for campaign-wide violations
	Kind    string
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("session %d: %s: %s", v.Session, v.Kind, v.Detail)
}

// Violation kinds.
const (
	VByteExact  = "byte-exact"
	VStuck      = "stuck"
	VMemReorder = "memory-reorder"
	VMemRetx    = "memory-retransmit"
	VGoroutine  = "goroutine-leak"
	VClosure    = "count-closure"
	VWriteError = "write-error"
	VResume     = "resume"
	VMemReplay  = "memory-replay"
	VHealth     = "health"
)

// Health-oracle constants: the self-diagnosis monitors (internal/health)
// run fleet-wide on a fast virtual tick — campaigns last seconds, not
// minutes, so the production 1s cadence would never accumulate enough
// ticks to trip a rule. At 100ms, a generated stall (userTimeout+100ms
// minimum) spans the 3-tick raise threshold with room to spare, and the
// post-quiesce cooldown gives every rule's clear hysteresis time to run
// before the active-verdict check.
const (
	healthTick     = 100 * time.Millisecond
	healthWindow   = 16 // ring ticks; evidence windows need at most 10
	healthCooldown = 2 * time.Second
)

// flowCount is one connection's record counters at one endpoint,
// reconstructed from the engine's trace stream (not its Stats): the
// count-closure invariant deliberately uses the observability channel a
// production operator would, and cross-checks it against Stats.
type flowCount struct {
	Sent uint64 // record_sent + ctl_sent + retransmit
	Recv uint64 // record_received + dup_dropped + ctl_received
}

// SessionResult is one session's deterministic outcome metrics.
type SessionResult struct {
	Index        int
	Coupled      bool
	Up           bool // true: client writes, server reads
	Total        int  // bytes the writer must move
	Written      int
	Got          int
	MismatchAt   int64 // first wrong delivered byte offset, -1 if none
	Quiesced     bool
	DoneAtUS     int64 // virtual µs when the last byte was delivered
	ConnFailures int   // client-observed EventConnFailed count
	Redials      int   // client supervisor redial rounds
	Recoveries   int   // client supervisor recoveries
	ReorderPeak  [2]int
	RetxPeak     [2]int
	Flows        [2]map[uint32]flowCount // per-conn counters: [client, server]
	WriteErr     string
	// Verdicts counts health-verdict raises on this session by kind name
	// (both endpoint monitors merged) — part of the determinism contract.
	Verdicts map[string]int
}

// ResumeStats are the campaign-wide resumption outcomes of FaultRestart
// events. Every field is deterministic: accept/reissue/age-out depends
// only on generation arithmetic against the rotation schedule, and the
// strike register runs on the virtual clock.
type ResumeStats struct {
	Accepted   int // tickets opened successfully on restart
	Reissued   int // of those, resealed because an old generation opened them
	AgedOut    int // tickets past the accept window: clean full-handshake fallback
	ZeroRTT    int // first-use tickets the strike register admitted for 0-RTT
	Replayed   int // repeat-use tickets the register refused (1-RTT fallback)
	ReplayPeak int // max strike-register entries observed (bounded-memory invariant)
}

// Result is a completed campaign.
type Result struct {
	Scenario   Scenario // Schedule materialized
	Sessions   []SessionResult
	Violations []Violation
	Resume     ResumeStats
	Quiesced   bool     // the whole fleet drained before the hard cap
	EndVirtual sim.Time // virtual time at snapshot
	Goroutines [2]int   // before / after
}

// Failed reports whether any invariant broke.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// ReproLine is the one-line reproduction command for this campaign.
func (r *Result) ReproLine() string {
	return fmt.Sprintf("go test -run TestFleetCampaign -fleet.seed=%d -fleet.sessions=%d ./internal/fleet",
		r.Scenario.Seed, r.Scenario.Sessions)
}

// Fingerprint hashes the fault schedule and every deterministic
// per-session metric. Two runs of the same Scenario must produce equal
// fingerprints; the seed-reproducibility test enforces exactly that.
// Wall-clock-dependent values (goroutine counts) are excluded.
func (r *Result) Fingerprint() string {
	h := sha256.New()
	w := func(format string, args ...interface{}) { fmt.Fprintf(h, format, args...) }
	w("seed=%d sessions=%d quiesced=%v end=%d\n", r.Scenario.Seed, r.Scenario.Sessions, r.Quiesced, r.EndVirtual)
	for _, ev := range r.Scenario.Schedule {
		w("fault %d %d %d %d %d %d %d\n", ev.At, ev.Kind, ev.Session, ev.Path, ev.Rack, ev.Stride, ev.Dur)
	}
	w("resume acc=%d re=%d aged=%d 0rtt=%d replay=%d peak=%d\n",
		r.Resume.Accepted, r.Resume.Reissued, r.Resume.AgedOut,
		r.Resume.ZeroRTT, r.Resume.Replayed, r.Resume.ReplayPeak)
	for i := range r.Sessions {
		sr := &r.Sessions[i]
		w("s%d c=%v u=%v tot=%d wr=%d got=%d mm=%d q=%v done=%d cf=%d rd=%d,%d rp=%d,%d xp=%d,%d we=%q\n",
			sr.Index, sr.Coupled, sr.Up, sr.Total, sr.Written, sr.Got, sr.MismatchAt,
			sr.Quiesced, sr.DoneAtUS, sr.ConnFailures, sr.Redials, sr.Recoveries,
			sr.ReorderPeak[0], sr.ReorderPeak[1], sr.RetxPeak[0], sr.RetxPeak[1], sr.WriteErr)
		for side := 0; side < 2; side++ {
			ids := make([]uint32, 0, len(sr.Flows[side]))
			for id := range sr.Flows[side] {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			for _, id := range ids {
				fl := sr.Flows[side][id]
				w("  f%d/%d sent=%d recv=%d\n", side, id, fl.Sent, fl.Recv)
			}
		}
		if len(sr.Verdicts) > 0 {
			kinds := make([]string, 0, len(sr.Verdicts))
			for k := range sr.Verdicts {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				w("  h %s=%d\n", k, sr.Verdicts[k])
			}
		}
	}
	for _, v := range r.Violations {
		w("v %d %s %s\n", v.Session, v.Kind, v.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fleetSession is one TCPLS session under campaign control: a
// client/server endpoint pair, its paths, the paced writer, and the
// inline delivery verifier. Lost paths come back through the production
// reconnect supervisor (internal/driver) on the virtual clock.
type fleetSession struct {
	idx     int
	c       *campaign
	coupled bool
	up      bool

	cl, sv *simtcpls.Endpoint
	paths  []*sim.Path

	streams []uint32 // writer-created data streams (same IDs both sides)

	total      int
	written    int
	got        int
	mismatchAt int64
	salt       uint32
	pumpGap    sim.Time
	pumping    bool
	finished   bool // writer sent its FINs
	quiesced   bool
	doneAt     sim.Time

	connFailures int
	redials      int // supervisor redial rounds (client side)
	recoveries   int // supervisor recoveries (client side)
	writeErr     string

	// Resumption state for FaultRestart: the session's PSK, its current
	// sealed ticket, and the key generation the ticket was sealed under
	// (the oracle for expected open/age-out outcomes).
	psk       []byte
	ticket    []byte
	ticketGen uint32

	counts [2]map[uint32]*flowCount
}

func (fs *fleetSession) writerEP() *simtcpls.Endpoint {
	if fs.up {
		return fs.cl
	}
	return fs.sv
}

func (fs *fleetSession) readerEP() *simtcpls.Endpoint {
	if fs.up {
		return fs.sv
	}
	return fs.cl
}

// patternByte is the deterministic payload at absolute offset off: the
// verifier recomputes it on delivery, so byte-exactness needs no
// reference copy of the transfer in memory.
func (fs *fleetSession) patternByte(off int) byte {
	return byte((uint32(off)*2654435761)>>24) ^ byte(fs.salt)
}

// campaign is one Run in progress.
type campaign struct {
	sc       Scenario
	s        *sim.Sim
	topo     *sim.Topology
	sessions []*fleetSession
	schedule []FaultEvent

	// Resumption exercise (FaultRestart): the shared ticket-key store a
	// restarted process would recover from its key file, the 0-RTT
	// strike register, and the deterministic outcome counters. keys is
	// nil when the schedule has no restarts and no rotations are asked.
	keys       *resume.KeyStore
	replay     *resume.Replay
	resume     ResumeStats
	resumeVios []Violation

	// Health oracle (invariant 5): two self-diagnosis monitors per
	// session (one per endpoint), polled from the virtual clock. touched
	// marks sessions any fault ever perturbed — a verdict raised on an
	// untouched session is a spurious diagnosis and fails the campaign.
	healthMons   []*health.Monitor
	touched      []bool
	healthRaised []map[string]int
	healthVios   []Violation

	// traceCount monotonically counts engine trace events fleet-wide;
	// the quiesce detector polls it for "no protocol activity".
	traceCount int64

	// traceSession >= 0 arms raw trace capture of that session's writer
	// engine (for qlog artifact generation).
	traceSession int
	traceBuf     []core.TraceEvent
}

// Run executes one campaign and checks all five invariants.
func Run(sc Scenario) *Result {
	res, _ := run(sc, -1)
	return res
}

// run executes the campaign; traceSession >= 0 additionally captures
// that session's writer-engine trace (returned raw for the artifact
// writer).
func run(sc Scenario, traceSession int) (*Result, []core.TraceEvent) {
	sc = sc.WithDefaults()
	goroutinesStart := runtime.NumGoroutine()

	c := &campaign{
		sc:           sc,
		s:            sim.New(),
		traceSession: traceSession,
	}
	c.topo = sim.NewTopology(c.s)
	c.schedule = GenSchedule(sc)
	sc.Schedule = c.schedule

	// Resumption exercise: stand up the shared key store and strike
	// register when the campaign restarts anything (or rotates keys),
	// and schedule the mid-campaign rotations before any fault fires.
	wantResume := sc.KeyRotations > 0
	for _, ev := range c.schedule {
		if ev.Kind == FaultRestart {
			wantResume = true
			break
		}
	}
	if wantResume {
		ks, err := resume.NewMemory()
		if err != nil {
			c.resumeVios = append(c.resumeVios, Violation{
				Session: -1, Kind: VResume, Detail: fmt.Sprintf("key store init: %v", err),
			})
		} else {
			c.keys = ks
			c.replay = resume.NewReplay(0, 0, epoch)
			for k := 1; k <= sc.KeyRotations; k++ {
				at := sc.Duration * sim.Time(k) / sim.Time(sc.KeyRotations+1)
				c.s.At(at, func() {
					if err := c.keys.Rotate(); err != nil {
						c.resumeVios = append(c.resumeVios, Violation{
							Session: -1, Kind: VResume, Detail: fmt.Sprintf("rotate: %v", err),
						})
					}
				})
			}
		}
	}

	c.touched = make([]bool, sc.Sessions)
	c.healthRaised = make([]map[string]int, sc.Sessions)
	for i := 0; i < sc.Sessions; i++ {
		c.sessions = append(c.sessions, c.buildSession(i))
	}
	for _, ev := range c.schedule {
		ev := ev
		c.s.At(ev.At, func() { c.applyFault(ev) })
	}

	// Invariant 5: the health oracle. Every monitor polls on the same
	// self-rescheduling virtual tick — fully deterministic, no Engine
	// goroutine — and keeps ticking through the post-quiesce cooldown so
	// clear hysteresis can run.
	var pollHealth func()
	pollHealth = func() {
		now := epoch.Add(c.s.Now())
		for _, m := range c.healthMons {
			m.Poll(now)
		}
		c.s.After(healthTick, pollHealth)
	}
	c.s.After(healthTick, pollHealth)

	// Drive the fleet until it drains. The endpoint keepalive ticks never
	// let the event queue empty, so completion is detected, not awaited:
	// every session quiesced, no trace activity for two consecutive
	// probes, and no TCP bytes in flight or buffered on live connections
	// (a restored blackhole can hold a retransmission in RTO backoff well
	// past the last trace event; snapshotting before it lands would turn
	// an in-flight record into a phantom closure violation).
	const step = 100 * time.Millisecond
	hardCap := sc.Duration + 12*time.Second
	quiesced := false
	var lastCount int64 = -1
	stable := 0
	for t := step; t <= hardCap; t += step {
		c.s.RunUntil(t)
		if !c.allQuiesced() {
			stable, lastCount = 0, -1
			continue
		}
		if c.traceCount == lastCount && c.netIdle() {
			stable++
			if stable >= 2 {
				quiesced = true
				break
			}
		} else {
			lastCount, stable = c.traceCount, 0
		}
	}

	// Post-quiesce cooldown: keep the virtual clock (and the health
	// ticks riding it) running long enough for every raised verdict's
	// clear hysteresis to observe the drained fleet. A verdict still
	// active after this window is non-transient — invariant 5 fails.
	if quiesced {
		c.s.RunUntil(c.s.Now() + healthCooldown)
	}

	res := &Result{
		Scenario:   sc,
		Quiesced:   quiesced,
		EndVirtual: c.s.Now(),
	}
	c.snapshot(res)

	// Invariant 3: zero goroutine leaks. The whole fleet runs on this
	// goroutine; anything extant beyond the starting count escaped.
	end := runtime.NumGoroutine()
	for i := 0; i < 20 && end > goroutinesStart; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		end = runtime.NumGoroutine()
	}
	res.Goroutines = [2]int{goroutinesStart, end}
	if end > goroutinesStart {
		res.Violations = append(res.Violations, Violation{
			Session: -1, Kind: VGoroutine,
			Detail: fmt.Sprintf("%d goroutines before campaign, %d after", goroutinesStart, end),
		})
	}
	return res, c.traceBuf
}

// buildSession constructs session i: endpoints, paths, keeper, writer.
func (c *campaign) buildSession(i int) *fleetSession {
	rng := sessionRand(c.sc.Seed, i)
	fs := &fleetSession{
		idx:        i,
		c:          c,
		coupled:    i%3 == 0,
		up:         i%2 == 0,
		mismatchAt: -1,
		salt:       uint32(rng.Intn(256)),
		pumpGap:    pumpEvery - 2*time.Millisecond + sim.Time(rng.Int63n(int64(4*time.Millisecond))),
		counts:     [2]map[uint32]*flowCount{{}, {}},
	}
	fs.total = c.sc.TransferBytes
	if fs.coupled {
		fs.total *= coupledMultiplier
	}

	cfg := core.Config{
		EnableFailover:     true,
		AckPeriod:          4,
		UserTimeout:        userTimeout,
		MaxRecordPayload:   maxPayload,
		MaxReorderBytes:    reorderCap,
		MaxReorderRecords:  reorderRecs,
		MaxRetransmitBytes: retransmitCap,
	}
	if c.sc.InjectReorderBug {
		cfg.MaxReorderBytes = -1
		cfg.MaxReorderRecords = -1
		cfg.MaxRetransmitBytes = -1
	}
	// The production supervisor at its defaults, jitter seeded per
	// session apart from the workload's draws.
	fs.cl, fs.sv = simtcpls.PairSupervised(c.s, cfg, &driver.ReconnectConfig{}, c.sc.Seed^int64(i+1)*0x5851F42D4C957F2D)
	clock := func() time.Time { return epoch.Add(c.s.Now()) }
	fs.cl.Sess.SetClock(clock)
	fs.sv.Sess.SetClock(clock)
	// Failover is the engine's production policy on both ends, and so is
	// recovery: the client's driver redials the session's paths once all
	// are lost, with a join cookie each (the budget a server would mint).
	for k := 0; k < joinCookies; k++ {
		fs.cl.D.Cookies = append(fs.cl.D.Cookies, [16]byte{byte(k + 1)})
	}
	fs.cl.OnJoined = fs.onConnReady
	fs.cl.OnLifecycle = func(ev driver.Event) {
		switch ev.Kind {
		case driver.Reconnecting:
			fs.redials++
		case driver.Reconnected:
			fs.recoveries++
		}
	}
	fs.cl.OnEvent = func(ev core.Event) {
		switch {
		case ev.Kind == core.EventConnFailed:
			fs.connFailures++
		case ev.Kind == core.EventStreamOpen && fs.coupled && !fs.up:
			// Down-direction sessions: the client is the reader.
			fs.cl.Sess.SetCoupled(ev.Stream, true)
		}
	}
	fs.sv.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventStreamOpen && fs.coupled && fs.up {
			fs.sv.Sess.SetCoupled(ev.Stream, true)
		}
	}

	c.installCounters(fs)
	c.installHealth(fs)

	// Zero-copy delivery with inline verification: invariant 1 holds no
	// transfer-sized buffers, so invariant 2's memory story extends to
	// the harness itself.
	rsess := fs.readerEP().Sess
	deliver := func(p []byte) { fs.onDeliver(p) }
	rsess.DeliverData = func(streamID uint32, p []byte) { deliver(p) }
	rsess.DeliverCoupled = deliver

	for p := 0; p < c.sc.PathsPerSession; p++ {
		path := sim.NewPath(c.s, linkRateBps, linkDelay)
		path.AtoB.QueueBytes = linkQueue
		path.BtoA.QueueBytes = linkQueue
		c.topo.Attach(i%c.sc.Racks, path)
		fs.paths = append(fs.paths, path)
	}
	fs.cl.Paths = fs.paths

	if c.keys != nil {
		// Session i's resumption identity. Derived outside the session
		// rng so enabling the resume exercise never perturbs workload
		// shapes or timings.
		fs.psk = sessionPSK(c.sc.Seed, i)
		fs.sealTicket()
	}

	startAt := sim.Time(rng.Int63n(int64(100 * time.Millisecond)))
	c.s.At(startAt, func() {
		for p := range fs.paths {
			fs.cl.Join(p)
		}
	})
	return fs
}

// installCounters taps both engines' trace streams for the closure
// counters (and the artifact capture when armed).
func (c *campaign) installCounters(fs *fleetSession) {
	tap := func(side int, capture bool) func(core.TraceEvent) {
		return func(ev core.TraceEvent) {
			c.traceCount++
			fl := fs.counts[side][ev.Conn]
			if fl == nil {
				fl = &flowCount{}
				fs.counts[side][ev.Conn] = fl
			}
			switch ev.Name {
			case "record_sent", "ctl_sent", "retransmit":
				fl.Sent++
			case "record_received", "dup_dropped", "ctl_received":
				fl.Recv++
			}
			if capture {
				c.traceBuf = append(c.traceBuf, ev)
			}
		}
	}
	capture := c.traceSession == fs.idx
	fs.cl.Sess.SetTracer(tap(0, capture && fs.up))
	fs.sv.Sess.SetTracer(tap(1, capture && !fs.up))
}

// fleetHealthSource hands one endpoint's engine snapshot to the health
// sampler. The campaign is single-goroutine on the DES, so the engine
// needs no locking.
type fleetHealthSource struct{ sess *core.Session }

func (f fleetHealthSource) HealthSample(snap *telemetry.Snapshot, _ *health.ProcessCounters) {
	f.sess.Snapshot(snap)
}

// installHealth attaches the session's two diagnosis monitors and the
// spurious-verdict detector. A raise on a session no fault ever touched
// is recorded as a violation the moment it happens (the fault may land
// later — by then the diagnosis was already wrong).
func (c *campaign) installHealth(fs *fleetSession) {
	c.healthRaised[fs.idx] = map[string]int{}
	mk := func(side string, sess *core.Session) *health.Monitor {
		return health.NewMonitor(fleetHealthSource{sess}, health.Options{
			Key:      fmt.Sprintf("s%d/%s", fs.idx, side),
			Interval: healthTick,
			Window:   healthWindow,
			OnVerdict: func(v health.Verdict) {
				if !v.Raised || v.Kind == health.Healthy {
					return
				}
				c.healthRaised[fs.idx][v.Name]++
				if !c.touched[fs.idx] {
					c.healthVios = append(c.healthVios, Violation{
						Session: fs.idx, Kind: VHealth,
						Detail: fmt.Sprintf("spurious %s on %s at virtual %v: %s (no fault ever touched this session)",
							v.Name, v.Key, time.Duration(v.AtUS)*time.Microsecond, v.Detail),
					})
				}
			},
		})
	}
	c.healthMons = append(c.healthMons, mk("client", fs.cl.Sess), mk("server", fs.sv.Sess))
}

// onConnReady starts the writer on the first usable connection and
// widens coupled sessions to a second stream once a second connection
// is up.
func (fs *fleetSession) onConnReady(connID uint32) {
	w := fs.writerEP()
	if len(fs.streams) == 0 {
		id, err := w.Sess.CreateStream(connID)
		if err != nil {
			return // conn died in the activation window; the supervisor rejoins
		}
		fs.streams = append(fs.streams, id)
		if fs.coupled {
			w.Sess.SetCoupled(id, true)
		}
		w.Flush()
		if !fs.pumping {
			fs.pumping = true
			fs.c.s.After(fs.pumpGap, fs.pump)
		}
		return
	}
	if fs.coupled && len(fs.streams) == 1 {
		if cur, err := w.Sess.StreamConn(fs.streams[0]); err == nil && cur != connID {
			if id, err := w.Sess.CreateStream(connID); err == nil {
				w.Sess.SetCoupled(id, true)
				fs.streams = append(fs.streams, id)
				w.Flush()
			}
		}
	}
}

// pump writes one paced chunk; a failed write is retried next tick
// rather than skipped, so the byte stream never gaps.
func (fs *fleetSession) pump() {
	if fs.quiesced || fs.written >= fs.total {
		return
	}
	n := chunkBytes
	if rem := fs.total - fs.written; n > rem {
		n = rem
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = fs.patternByte(fs.written + i)
	}
	var err error
	if fs.coupled {
		err = fs.writerEP().WriteCoupled(buf)
	} else {
		err = fs.writerEP().Write(fs.streams[0], buf)
	}
	if err == nil {
		fs.written += n
	} else if !errors.Is(err, core.ErrRetransmitBudget) {
		// ErrRetransmitBudget is designed backpressure — the budget parks
		// the writer until ACKs trim the buffer — so it is retried, not
		// recorded. Anything else is a genuine writer failure.
		fs.writeErr = err.Error()
	}
	if fs.written < fs.total {
		fs.c.s.After(fs.pumpGap, fs.pump)
		return
	}
	// Transfer fully queued: half-close our side so the FIN rides the
	// tail of the data.
	fs.finishWriter()
}

func (fs *fleetSession) finishWriter() {
	if fs.finished {
		return
	}
	fs.finished = true
	w := fs.writerEP()
	for _, id := range fs.streams {
		_ = w.Sess.FinishStream(id)
	}
	w.Flush()
}

// onDeliver verifies delivered bytes against the pattern in O(1) memory.
func (fs *fleetSession) onDeliver(p []byte) {
	for _, b := range p {
		if fs.mismatchAt < 0 && b != fs.patternByte(fs.got) {
			fs.mismatchAt = int64(fs.got)
		}
		fs.got++
	}
	if fs.got >= fs.total && !fs.quiesced {
		fs.doneAt = fs.c.s.Now()
		// Quiesce outside the engine's receive path.
		fs.c.s.After(0, fs.quiesce)
	}
}

// quiesce winds the session down after the last byte lands: both sides
// half-close and flush acknowledgments, then flush again after the FINs
// have crossed so no retransmit buffer is left waiting on an ack — a
// session left "active" here would trip spurious user timeouts and
// never let the fleet drain.
func (fs *fleetSession) quiesce() {
	if fs.quiesced {
		return
	}
	fs.quiesced = true
	fs.finishWriter()
	r := fs.readerEP()
	for _, id := range fs.streams {
		_ = r.Sess.FinishStream(id)
	}
	r.Flush()
	r.Sess.FlushAcks()
	r.Flush()
	both := func() {
		fs.cl.Sess.FlushAcks()
		fs.cl.Flush()
		fs.sv.Sess.FlushAcks()
		fs.sv.Flush()
	}
	fs.c.s.After(20*time.Millisecond, both)
	fs.c.s.After(120*time.Millisecond, both)
}

func (c *campaign) allQuiesced() bool {
	for _, fs := range c.sessions {
		if !fs.quiesced {
			return false
		}
	}
	return true
}

// netIdle reports no unacknowledged or unsent TCP bytes on any healthy
// connection fleet-wide. A connection counts as healthy only when BOTH
// TCP endpoints are alive and NEITHER engine declared it failed: a lost
// RST leaves one TCP side retransmitting into the void forever, and
// waiting on those bytes would mean never going quiet (they are
// attributable conn-failed drops, not pending deliveries).
func (c *campaign) netIdle() bool {
	for _, fs := range c.sessions {
		for _, ep := range []*simtcpls.Endpoint{fs.cl, fs.sv} {
			for _, id := range ep.Sess.Connections() {
				clTc, svTc := fs.cl.Conn(id), fs.sv.Conn(id)
				if clTc == nil || svTc == nil || clTc.Failed() || svTc.Failed() {
					continue
				}
				if fs.cl.Sess.ConnFailed(id) || fs.sv.Sess.ConnFailed(id) {
					continue
				}
				tc := ep.Conn(id)
				if tc.InFlight() > 0 || tc.Buffered() > 0 {
					return false
				}
			}
		}
	}
	return true
}

// applyFault executes one scheduled fault against the live fleet.
func (c *campaign) applyFault(ev FaultEvent) {
	n := len(c.sessions)
	if n == 0 {
		return
	}
	fs := c.sessions[ev.Session%n]
	switch ev.Kind {
	case FaultRST, FaultBlackhole, FaultStall, FaultDegrade, FaultRestart:
		c.touched[fs.idx] = true
	case FaultRSTStorm:
		stride := ev.Stride
		if stride < 1 {
			stride = 1
		}
		for i := ev.Session % n; i < n; i += stride {
			c.touched[i] = true
		}
	case FaultRackOutage:
		rack := ev.Rack % c.sc.Racks
		for i := range c.sessions {
			if i%c.sc.Racks == rack {
				c.touched[i] = true
			}
		}
	}
	switch ev.Kind {
	case FaultRST:
		c.resetLowestLive(fs)
	case FaultBlackhole:
		p := fs.paths[ev.Path%len(fs.paths)]
		p.SetDown(true)
		c.s.At(ev.At+ev.Dur, func() { p.SetDown(false) })
	case FaultStall:
		p := fs.paths[ev.Path%len(fs.paths)]
		// Kill only the data-carrying direction: ACKs keep flowing, so
		// nothing below the user timeout can notice.
		p.SetDownDir(fs.up, true)
		c.s.At(ev.At+ev.Dur, func() { p.SetDownDir(fs.up, false) })
	case FaultDegrade:
		p := fs.paths[ev.Path%len(fs.paths)]
		l := p.BtoA
		if fs.up {
			l = p.AtoB
		}
		l.SetRateBps(linkRateBps / 8)
		c.s.At(ev.At+ev.Dur, func() { l.SetRateBps(linkRateBps) })
	case FaultRSTStorm:
		stride := ev.Stride
		if stride < 1 {
			stride = 1
		}
		for i := ev.Session % n; i < n; i += stride {
			c.resetLowestLive(c.sessions[i])
		}
	case FaultRackOutage:
		rack := ev.Rack % c.sc.Racks
		c.topo.SetRackDown(rack, true)
		c.s.At(ev.At+ev.Dur, func() { c.topo.SetRackDown(rack, false) })
	case FaultRestart:
		c.restartSession(fs)
	}
}

// sessionPSK derives session i's deterministic resumption PSK (splitmix
// over seed and index — independent of the session workload rng).
func sessionPSK(seed int64, i int) []byte {
	psk := make([]byte, 32)
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	for j := range psk {
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		psk[j] = byte(z >> 56)
	}
	return psk
}

// sealTicket (re)seals the session's PSK under the key store's current
// generation — ticket issuance at session start, reissue-on-rotation and
// full-handshake fallback thereafter.
func (fs *fleetSession) sealTicket() {
	t, err := fs.c.keys.Seal(fs.psk)
	if err != nil {
		fs.c.resumeVios = append(fs.c.resumeVios, Violation{
			Session: fs.idx, Kind: VResume, Detail: fmt.Sprintf("seal: %v", err),
		})
		return
	}
	fs.ticket, fs.ticketGen = t, fs.c.keys.Generation()
}

// restartSession is FaultRestart: the server process under the session
// dies and comes back holding only its persisted key file. The ticket
// resumption runs first (the reconnect's first flight), then every live
// connection dies at once; the reconnect supervisor rejoins and
// invariant #1 proves the transfer survived byte-exact.
func (c *campaign) restartSession(fs *fleetSession) {
	if c.keys != nil && fs.ticket != nil {
		c.resumeTicket(fs)
	}
	for _, dc := range fs.cl.D.Conns() {
		if dc.State == driver.Live {
			if tc := fs.cl.Conn(dc.ID); tc != nil && !tc.Failed() {
				tc.Reset()
			}
		}
	}
}

// resumeTicket opens the session's ticket against the shared key store
// and checks every outcome against the generation-arithmetic oracle:
// tickets inside the accept window MUST open to the byte-exact PSK
// (reissuing under old-but-accepted generations), tickets past it MUST
// fail cleanly, and the 0-RTT strike register admits each ticket's
// nonce exactly once.
func (c *campaign) resumeTicket(fs *fleetSession) {
	vio := func(format string, args ...interface{}) {
		c.resumeVios = append(c.resumeVios, Violation{
			Session: fs.idx, Kind: VResume, Detail: fmt.Sprintf(format, args...),
		})
	}
	gen := c.keys.Generation()
	expectOK := gen-fs.ticketGen < uint32(resume.DefaultAcceptWindow)
	psk, _, reissue, err := c.keys.OpenTicket(fs.ticket)
	if err != nil {
		if expectOK {
			vio("ticket sealed at gen %d failed to open at gen %d: %v", fs.ticketGen, gen, err)
		}
		// Aged out: the clean fallback is a full handshake that mints a
		// fresh ticket under the current key.
		c.resume.AgedOut++
		fs.sealTicket()
		return
	}
	if !expectOK {
		vio("ticket sealed at gen %d opened at gen %d — past the accept window", fs.ticketGen, gen)
	}
	if !bytes.Equal(psk, fs.psk) {
		vio("recovered PSK differs from the sealed one (gen %d -> %d)", fs.ticketGen, gen)
	}
	c.resume.Accepted++
	if reissue != (gen != fs.ticketGen) {
		vio("reissue=%v for gen %d ticket at gen %d", reissue, fs.ticketGen, gen)
	}
	if nonce, ok := resume.TicketNonce(fs.ticket); ok {
		if c.replay.Observe(nonce, epoch.Add(c.s.Now())) {
			c.resume.ZeroRTT++
		} else {
			// Same ticket seen before (restarted twice between reissues):
			// the register refuses 0-RTT and the flight falls back to
			// 1-RTT — correct, counted, not a violation.
			c.resume.Replayed++
		}
		if e := c.replay.Entries(); e > c.resume.ReplayPeak {
			c.resume.ReplayPeak = e
		}
	} else {
		vio("sealed ticket too short for a nonce (%d bytes)", len(fs.ticket))
	}
	if reissue {
		c.resume.Reissued++
		fs.sealTicket()
	}
}

// resetLowestLive injects a RST on the session's lowest-numbered live
// connection (deterministic victim selection).
func (c *campaign) resetLowestLive(fs *fleetSession) {
	for _, dc := range fs.cl.D.Conns() {
		if dc.State == driver.Live {
			if tc := fs.cl.Conn(dc.ID); tc != nil && !tc.Failed() {
				tc.Reset()
			}
			return
		}
	}
}

// snapshot freezes per-session metrics and checks invariants 1, 2 and 4.
func (c *campaign) snapshot(res *Result) {
	var ends [2]telemetry.Snapshot // client, server
	for _, fs := range c.sessions {
		fs.cl.Sess.Snapshot(&ends[0])
		fs.sv.Sess.Snapshot(&ends[1])
		sr := SessionResult{
			Index:        fs.idx,
			Coupled:      fs.coupled,
			Up:           fs.up,
			Total:        fs.total,
			Written:      fs.written,
			Got:          fs.got,
			MismatchAt:   fs.mismatchAt,
			Quiesced:     fs.quiesced,
			ConnFailures: fs.connFailures,
			Redials:      fs.redials,
			Recoveries:   fs.recoveries,
			WriteErr:     fs.writeErr,
			ReorderPeak:  [2]int{ends[0].ReorderBytesPeak, ends[1].ReorderBytesPeak},
			RetxPeak:     [2]int{ends[0].RetransmitBytesPeak, ends[1].RetransmitBytesPeak},
			Flows:        [2]map[uint32]flowCount{{}, {}},
			Verdicts:     c.healthRaised[fs.idx],
		}
		if fs.quiesced {
			sr.DoneAtUS = int64(fs.doneAt / time.Microsecond)
		}
		for side := 0; side < 2; side++ {
			for id, fl := range fs.counts[side] {
				sr.Flows[side][id] = *fl
			}
		}
		res.Sessions = append(res.Sessions, sr)

		add := func(kind, format string, args ...interface{}) {
			res.Violations = append(res.Violations, Violation{
				Session: fs.idx, Kind: kind, Detail: fmt.Sprintf(format, args...),
			})
		}

		// Invariant 1: byte-exactness.
		if !fs.quiesced {
			add(VStuck, "transfer incomplete at hard cap: wrote %d/%d, delivered %d", fs.written, fs.total, fs.got)
		} else if fs.got != fs.total {
			add(VByteExact, "delivered %d bytes, wanted %d", fs.got, fs.total)
		}
		if fs.mismatchAt >= 0 {
			add(VByteExact, "first corrupt byte at offset %d", fs.mismatchAt)
		}
		if fs.writeErr != "" {
			add(VWriteError, "writer error: %s", fs.writeErr)
		}

		// Invariant 2: bounded memory.
		for side := range ends {
			if p := ends[side].ReorderBytesPeak; p > reorderBudget {
				add(VMemReorder, "side %d reorder heap peaked at %d bytes (budget %d)", side, p, reorderBudget)
			}
			if p := ends[side].RetransmitBytesPeak; p > retransmitBudget {
				add(VMemRetx, "side %d retransmit buffers peaked at %d bytes (budget %d)", side, p, retransmitBudget)
			}
		}

		// Invariant 4: telemetry count-closure. Only meaningful once the
		// fleet drained: with records still in flight "sent but not yet
		// received" is not loss.
		if res.Quiesced {
			c.checkClosure(fs, add)
		}

		// Invariant 5, non-transient leg: after the fleet drained and the
		// cooldown ran, every verdict must have cleared — a diagnosis that
		// outlives its cause is as wrong as one with no cause. (Without
		// quiesce the fleet is genuinely unhealthy and VStuck already
		// fired; active verdicts are then correct, not violations.)
		if res.Quiesced {
			sides := [2]string{"client", "server"}
			for side, m := range c.healthMons[2*fs.idx : 2*fs.idx+2] {
				for _, k := range m.ActiveVerdicts(nil) {
					add(VHealth, "%s still active on the %s side %v after quiesce+cooldown",
						k, sides[side], healthCooldown)
				}
			}
		}
	}

	// Resumption outcomes and oracle violations (FaultRestart), plus the
	// bounded-anti-replay leg of invariant 2: the strike register may
	// never hold more than its two windows' capacity, no matter how many
	// restarts the campaign threw at it.
	if c.replay != nil {
		if e := c.replay.Entries(); e > c.resume.ReplayPeak {
			c.resume.ReplayPeak = e
		}
		if bound := 2 * resume.DefaultReplayCap; c.resume.ReplayPeak > bound {
			c.resumeVios = append(c.resumeVios, Violation{
				Session: -1, Kind: VMemReplay,
				Detail: fmt.Sprintf("strike register peaked at %d entries (bound %d)", c.resume.ReplayPeak, bound),
			})
		}
	}
	res.Resume = c.resume
	res.Violations = append(res.Violations, c.resumeVios...)
	res.Violations = append(res.Violations, c.healthVios...)
}

// checkClosure verifies records sent == records delivered + records
// attributably dropped, per connection and direction, from the trace
// counters; and that the trace counters agree with the engine's own
// Stats (the telemetry channel tells the truth).
func (c *campaign) checkClosure(fs *fleetSession, add func(kind, format string, args ...interface{})) {
	sides := [2]*core.Session{fs.cl.Sess, fs.sv.Sess}
	for side := 0; side < 2; side++ {
		var traceSent uint64
		for _, fl := range fs.counts[side] {
			traceSent += fl.Sent
		}
		if got := sides[side].Stats().RecordsSent; traceSent != got {
			add(VClosure, "side %d trace counted %d records sent, engine stats say %d", side, traceSent, got)
		}
		if fd := sides[side].Stats().FailedDecrypts; fd != 0 {
			add(VClosure, "side %d saw %d failed decrypts (late bytes leaked past a failed conn?)", side, fd)
		}
	}
	// Directional closure: sender side s, receiver side 1-s.
	for s := 0; s < 2; s++ {
		r := 1 - s
		ids := map[uint32]bool{}
		for id := range fs.counts[s] {
			ids[id] = true
		}
		for id := range fs.counts[r] {
			ids[id] = true
		}
		sorted := make([]uint32, 0, len(ids))
		for id := range ids {
			sorted = append(sorted, id)
		}
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		for _, id := range sorted {
			var sent, recv uint64
			if fl := fs.counts[s][id]; fl != nil {
				sent = fl.Sent
			}
			if fl := fs.counts[r][id]; fl != nil {
				recv = fl.Recv
			}
			failed := fs.cl.Sess.ConnFailed(id) || fs.sv.Sess.ConnFailed(id)
			switch {
			case recv > sent:
				add(VClosure, "conn %d dir %d->%d: received %d records but only %d were sent", id, s, r, recv, sent)
			case recv < sent && !failed:
				add(VClosure, "conn %d dir %d->%d: %d records sent, %d delivered, and the conn never failed — %d records lost without attribution",
					id, s, r, sent, recv, sent-recv)
			}
			// recv < sent on a failed conn is the attributable drop:
			// sent == delivered + dropped(conn_failed) holds by
			// construction.
		}
	}
}
