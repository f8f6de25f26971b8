package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"time"

	"tcpls"
	"tcpls/internal/core"
	"tcpls/internal/handshake"
	"tcpls/internal/record"
	"tcpls/internal/reorder"
	"tcpls/internal/resume"
	"tcpls/internal/sched"
	"tcpls/internal/server"
	"tcpls/internal/telemetry"
)

// The ladder probe replays the workloads' record sizes (full 16 KiB
// records for the bulk workloads, 256 B ones for rpc_small) through one
// layer's exported functions at a time, then climbs through the wrapper
// over an in-memory connection to loopback TCP. Every rung is timed from
// here; nothing inside the program is instrumented. It does not depend
// on which workload the traced run drives.

const probeRounds = 5

// probe calls body in rounds for about budget in all. body returns the
// time it wants counted (so it can keep its own set-up out) and how many
// units it did; the result is the median over rounds of ns per unit.
func probe(budget time.Duration, body func() (time.Duration, int)) float64 {
	var perUnit []float64
	for r := 0; r < probeRounds; r++ {
		var timed time.Duration
		units := 0
		for start := time.Now(); units == 0 || time.Since(start) < budget/probeRounds; {
			d, n := body()
			timed += d
			units += n
		}
		perUnit = append(perUnit, float64(timed)/float64(units))
	}
	return median(perUnit)
}

func mbps(bytesPerUnit int, nsPerUnit float64) float64 {
	return float64(bytesPerUnit) / nsPerUnit * 1e3
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// ladder collects the probe's metrics.
type ladder struct {
	seed uint64
	unit time.Duration // a hundredth of the probe's budget
	res  *result
}

func (ld *ladder) budget(units float64) time.Duration {
	d := time.Duration(units * float64(ld.unit))
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

func (ld *ladder) set(name, unit string, v float64) { ld.res.set(name, unit, single(v)) }

func (ld *ladder) value(name string) float64 { return ld.res.Metrics[name].Median }

// ratio records name = a / b and keeps both bases beside it.
func (ld *ladder) ratio(name, a, b string) {
	va, vb := ld.value(a), ld.value(b)
	ld.ratioOf(name, va, vb, fmt.Sprintf("%s %.4g / %s %.4g %s", a, va, b, vb, ld.res.Metrics[b].Unit))
}

func (ld *ladder) ratioOf(name string, a, b float64, note string) {
	v := 0.0
	if b != 0 {
		v = a / b
	}
	ld.res.setNote(name, "ratio", v, note)
}

// runLadder runs every rung in about total.
func runLadder(seed uint64, total time.Duration) (*result, error) {
	ld := &ladder{seed: seed, unit: total / 100, res: &result{
		Workload: "ladder", Seed: seed, Traced: true, Seconds: total.Seconds(), Metrics: map[string]metric{},
	}}
	steps := []func() error{
		ld.recordLayer, ld.coreLayer, ld.schedAndReorder, ld.resumeLayer,
		ld.serverLayer, ld.telemetryLayer, ld.handshakeLayer, ld.wrapperLayer,
		ld.loopbackBulk, ld.loopbackRPC, ld.loopbackChurn,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	ld.ratio("ladder.core_send_over_seal", "core.send16k_MBps", "record.seal16k_MBps")
	ld.ratio("ladder.inmem_over_core_send", "wrapper.inmem_MBps", "core.send16k_MBps")
	return ld.res, nil
}

func testSecrets(seed uint64) (handshake.Secrets, error) {
	suite, err := record.SuiteByID(record.TLSAES128GCMSHA256)
	if err != nil {
		return handshake.Secrets{}, err
	}
	gen := splitmix64(seed)
	c, s := make([]byte, 32), make([]byte, 32)
	gen.fill(c)
	gen.fill(s)
	return handshake.Secrets{Suite: suite, ClientApp: c, ServerApp: s}, nil
}

// --- internal/record ---

func (ld *ladder) recordLayer() error {
	sec, err := testSecrets(ld.seed)
	if err != nil {
		return err
	}
	key, iv := record.DeriveTrafficKeys(sec.Suite, sec.ClientApp)
	newCtx := func() (*record.StreamContext, error) { return record.NewStreamContext(sec.Suite, key, iv, 2) }
	gen := splitmix64(ld.seed)
	const batch = 16
	for _, size := range []struct {
		n          int
		seal, open string
		mb         bool
	}{
		{record.MaxPlaintextLen, "record.seal16k_MBps", "record.open16k_MBps", true},
		{256, "record.seal256_ns", "record.open256_ns", false},
	} {
		payload := make([]byte, size.n)
		gen.fill(payload)
		sealer, err := newCtx()
		if err != nil {
			return err
		}
		dst := make([]byte, 0, record.MaxRecordLen)
		var serr error
		sealNs := probe(ld.budget(1.8), func() (time.Duration, int) {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				if _, err := sealer.SealSeq(dst[:0], uint64(i), record.ContentTypeApplicationData, payload, 0); err != nil {
					serr = err
				}
			}
			return time.Since(t0), batch
		})
		if serr != nil {
			return serr
		}
		// Open works in place, so each round opens fresh copies of the
		// same sealed records; the copying is not timed.
		var sealed [batch][]byte
		for i := range sealed {
			if sealed[i], err = sealer.SealSeq(nil, uint64(i), record.ContentTypeApplicationData, payload, 0); err != nil {
				return err
			}
		}
		opener, err := newCtx()
		if err != nil {
			return err
		}
		scratch := make([]byte, len(sealed[0]))
		openNs := probe(ld.budget(1.8), func() (time.Duration, int) {
			var d time.Duration
			opener.SetSeq(0)
			for i := range sealed {
				copy(scratch, sealed[i])
				t0 := time.Now()
				if _, _, err := opener.Open(scratch); err != nil {
					serr = err
				}
				d += time.Since(t0)
			}
			return d, batch
		})
		if serr != nil {
			return serr
		}
		if size.mb {
			ld.set(size.seal, "MB/s", mbps(size.n, sealNs))
			ld.set(size.open, "MB/s", mbps(size.n, openNs))
		} else {
			ld.set(size.seal, "ns", sealNs)
			ld.set(size.open, "ns", openNs)
		}
		if !size.mb {
			continue
		}
		// Deframing: one read's worth of full records fed at once.
		var wire []byte
		for i := range sealed {
			wire = append(wire, sealed[i]...)
		}
		var df record.Deframer
		ld.set("record.deframe_ns_per_rec", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
			t0 := time.Now()
			df.Feed(wire)
			n := 0
			for {
				_, ok, err := df.Next()
				if err != nil {
					serr = err
				}
				if !ok {
					break
				}
				n++
			}
			return time.Since(t0), n
		}))
		if serr != nil {
			return serr
		}
		pool := record.NewBufferPool()
		ld.set("record.pool_copy_release_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				pool.Copy(payload).Release()
			}
			return time.Since(t0), batch
		}))
	}
	return nil
}

// --- internal/core ---

// enginePair is two in-memory engines and the stopwatches of one
// direction of traffic between them.
type enginePair struct {
	snd, rcv *core.Session
	conns    []uint32
	streams  []uint32
	coupled  bool
	now      time.Time
	buf      []byte

	sendNs, recvNs, ackNs time.Duration
}

func newEnginePair(sec handshake.Secrets, cfg core.Config, paths int) (*enginePair, error) {
	p := &enginePair{
		snd: core.NewSession(core.RoleClient, sec, cfg),
		rcv: core.NewSession(core.RoleServer, sec, cfg),
		now: time.Now(), buf: make([]byte, 256<<10), coupled: paths > 1,
	}
	for c := uint32(0); c < uint32(paths); c++ {
		if err := p.snd.AddConnection(c, p.now); err != nil {
			return nil, err
		}
		if err := p.rcv.AddConnection(c, p.now); err != nil {
			return nil, err
		}
		id, err := p.snd.CreateStream(c)
		if err != nil {
			return nil, err
		}
		p.conns = append(p.conns, c)
		p.streams = append(p.streams, id)
	}
	if err := p.shuttle(); err != nil {
		return nil, err
	}
	if p.coupled {
		for _, id := range p.streams {
			if err := p.snd.SetCoupled(id, true); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

func flush(s *core.Session) error {
	if err := s.Flush(); err != nil && !errors.Is(err, core.ErrNotCoupled) {
		return err
	}
	return nil
}

// shuttle carries what the sender has queued to the receiver, reads it
// there, and carries the receiver's acknowledgments back. Each leg adds
// to its own stopwatch: Flush, Outgoing and RecycleOutgoing to send,
// Receive and Read to recv, the sender's Receive of acks to ack.
func (p *enginePair) shuttle() error {
	t0 := time.Now()
	if err := flush(p.snd); err != nil {
		return err
	}
	p.sendNs += time.Since(t0)
	for _, c := range p.conns {
		t0 = time.Now()
		out, err := p.snd.Outgoing(c)
		if err != nil {
			return err
		}
		p.sendNs += time.Since(t0)
		if len(out) == 0 {
			continue
		}
		t0 = time.Now()
		if err := p.rcv.Receive(c, out, p.now); err != nil {
			return err
		}
		p.recvNs += time.Since(t0)
		t0 = time.Now()
		p.snd.RecycleOutgoing(out)
		p.sendNs += time.Since(t0)
	}
	t0 = time.Now()
	if p.coupled {
		for p.rcv.CoupledReadable() > 0 {
			p.rcv.ReadCoupled(p.buf)
		}
	} else {
		for _, id := range p.streams {
			for p.rcv.Readable(id) > 0 {
				if _, err := p.rcv.Read(id, p.buf); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(p.rcv); err != nil {
		return err
	}
	p.recvNs += time.Since(t0)
	for _, c := range p.conns {
		back, err := p.rcv.Outgoing(c)
		if err != nil {
			return err
		}
		if len(back) == 0 {
			continue
		}
		t0 = time.Now()
		if err := p.snd.Receive(c, back, p.now); err != nil {
			return err
		}
		p.ackNs += time.Since(t0)
		p.rcv.RecycleOutgoing(back)
	}
	return nil
}

// drive pushes payloads through the pair for about budget, one write per
// record when perRecord is set (rpc_small's shape: every request is its
// own Write and Flush). It returns ns per record on each stopwatch.
func (p *enginePair) drive(budget time.Duration, payload []byte, perRecord bool) (send, recv, ack, allocsPerRec float64, records uint64, err error) {
	const writesPerBatch = 64
	p.sendNs, p.recvNs, p.ackNs = 0, 0, 0
	before, m0 := p.snd.Stats(), mallocs()
	for start := time.Now(); time.Since(start) < budget; {
		n := 1
		if perRecord {
			n = writesPerBatch
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if p.coupled {
				_, err = p.snd.WriteCoupled(payload)
			} else {
				_, err = p.snd.Write(p.streams[0], payload)
			}
			if err == nil && perRecord {
				err = flush(p.snd)
			}
			p.sendNs += time.Since(t0)
			if err != nil {
				return
			}
		}
		if err = p.shuttle(); err != nil {
			return
		}
	}
	m1, after := mallocs(), p.snd.Stats()
	records = after.RecordsSent - before.RecordsSent
	if records == 0 {
		err = errors.New("engine pair sent no record")
		return
	}
	r := float64(records)
	send, recv = float64(p.sendNs)/r, float64(p.recvNs)/r
	if acks := after.AcksReceived - before.AcksReceived; acks > 0 {
		ack = float64(p.ackNs) / float64(acks)
	}
	return send, recv, ack, float64(m1-m0) / r, records, nil
}

func (ld *ladder) coreLayer() error {
	sec, err := testSecrets(ld.seed)
	if err != nil {
		return err
	}
	gen := splitmix64(ld.seed)
	bulkWrite := make([]byte, 64<<10) // four full records per write
	gen.fill(bulkWrite)
	small := bulkWrite[:256]
	// Bytes per record as the engine cuts them, from its own counters.
	perRec := func(p *enginePair, records uint64, before core.Stats) int {
		return int((p.snd.Stats().BytesSent - before.BytesSent) / records)
	}

	plain, err := newEnginePair(sec, core.Config{}, 1)
	if err != nil {
		return err
	}
	st := plain.snd.Stats()
	send, recv, _, allocs, recs, err := plain.drive(ld.budget(3.6), bulkWrite, false)
	if err != nil {
		return err
	}
	size := perRec(plain, recs, st)
	ld.set("core.send16k_MBps", "MB/s", mbps(size, send))
	ld.set("core.recv16k_MBps", "MB/s", mbps(size, recv))
	ld.set("core.allocs_per_rec", "1/rec", allocs)

	send, recv, _, _, _, err = plain.drive(ld.budget(3.6), small, true)
	if err != nil {
		return err
	}
	ld.set("core.send256_ns", "ns", send)
	ld.set("core.recv256_ns", "ns", recv)

	fo, err := newEnginePair(sec, core.Config{EnableFailover: true}, 1)
	if err != nil {
		return err
	}
	st = fo.snd.Stats()
	send, _, ack, _, recs, err := fo.drive(ld.budget(3.6), bulkWrite, false)
	if err != nil {
		return err
	}
	ld.set("core.send16k_fo_MBps", "MB/s", mbps(perRec(fo, recs, st), send))
	ld.set("core.ack_ns", "ns", ack)

	// Two paths, two coupled streams, failover on: bulk_failover_2p's
	// engine shape. The figure is payload over the time both engines
	// spent, acks included.
	cp, err := newEnginePair(sec, core.Config{EnableFailover: true}, 2)
	if err != nil {
		return err
	}
	st = cp.snd.Stats()
	send, recv, _, _, recs, err = cp.drive(ld.budget(3.6), bulkWrite, false)
	if err != nil {
		return err
	}
	both := send + recv + float64(cp.ackNs)/float64(recs)
	ld.set("core.coupled2p_MBps", "MB/s", mbps(perRec(cp, recs, st), both))
	return nil
}

// --- internal/sched, internal/reorder ---

func (ld *ladder) schedAndReorder() error {
	rr := sched.RoundRobin() // the default scheduler
	paths := []sched.PathView{{Stream: 2, Conn: 0}, {Stream: 4, Conn: 1}}
	idx, sum := uint64(0), 0
	ld.set("sched.pick_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 1024; i++ {
			sum += rr.Pick(idx, paths)
			idx++
		}
		return time.Since(t0), 1024
	}))
	if sum < 0 {
		return errors.New("unreachable")
	}
	// Two paths deliver alternately, so every other record arrives one
	// ahead of its turn: parked, then released with its predecessor.
	rb := reorder.New(0)
	data := make([]byte, record.MaxPlaintextLen)
	seq, short := uint64(0), false
	ld.set("reorder.push_pop_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 512; i++ {
			rb.Offer(seq+1, data)
			if len(rb.Offer(seq, data)) != 2 {
				short = true
			}
			seq += 2
		}
		return time.Since(t0), 1024
	}))
	if short {
		return errors.New("reorder buffer did not release parked records")
	}
	return nil
}

// --- internal/resume ---

func (ld *ladder) resumeLayer() error {
	ks, err := resume.NewMemory()
	if err != nil {
		return err
	}
	psk := make([]byte, 32)
	var perr error
	var ticket []byte
	ld.set("resume.ticket_seal_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			if ticket, err = ks.Seal(psk); err != nil {
				perr = err
			}
		}
		return time.Since(t0), 64
	}))
	ld.set("resume.ticket_open_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			if _, _, _, err := ks.OpenTicket(ticket); err != nil {
				perr = err
			}
		}
		return time.Since(t0), 64
	}))
	if perr != nil {
		return perr
	}
	// A fresh nonce each time, as every accepted 0-RTT flight has; the
	// register is sized so that it never fills during the probe.
	nonce, ok := resume.TicketNonce(ticket)
	if !ok {
		return errors.New("ticket has no nonce")
	}
	born := time.Now()
	reg := resume.NewReplay(time.Hour, 1<<24, born)
	n, refused := uint64(0), false
	ld.set("resume.replay_observe_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
		now := time.Now()
		for i := 0; i < 256; i++ {
			n++
			for j := 0; j < 8; j++ {
				nonce[j] = byte(n >> (8 * j))
			}
			if !reg.ObserveFresh(nonce, now, now) {
				refused = true
			}
		}
		return time.Since(now), 256
	}))
	if refused {
		return errors.New("strike register refused a fresh nonce")
	}
	return nil
}

// --- internal/server ---

type idleSession struct{}

func (idleSession) MemoryFootprint() int { return 0 }
func (idleSession) Close() error         { return nil }

func (ld *ladder) serverLayer() error {
	reg := server.NewRegistry(0)
	// With metrics, as a Server builds it (and a nil *ServerMetrics, which
	// NewController's comment allows, panics in AdmitConn).
	sm := telemetry.ServerFamiliesOn(telemetry.NewRegistry()).Server("probe")
	ctrl := server.NewController(server.Limits{}, reg, server.NewBudget(reg, 0, 0), sm)
	remote := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000}
	var aerr error
	ld.set("server.admit_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 256; i++ {
			release, err := ctrl.AdmitConn(remote)
			if err != nil {
				aerr = err
			}
			if release != nil {
				release()
			}
			if err := ctrl.AdmitSession(remote); err != nil {
				aerr = err
			}
			ctrl.ReleaseSession()
		}
		return time.Since(t0), 256
	}))
	if aerr != nil {
		return aerr
	}
	var id server.SessID
	n, missed := uint64(0), false
	ld.set("server.registry_add_remove_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 256; i++ {
			n++
			for j := 0; j < 8; j++ {
				id[j] = byte(n >> (8 * j))
			}
			if !reg.Add(id, idleSession{}) {
				missed = true
			}
			if _, ok := reg.Remove(id); !ok {
				missed = true
			}
		}
		return time.Since(t0), 256
	}))
	if missed {
		return errors.New("registry add/remove failed")
	}
	return nil
}

// --- internal/telemetry ---

func (ld *ladder) telemetryLayer() error {
	ctr := telemetry.NewRegistry().CounterVec("bench_probe_total", "ladder probe", "k").With("v")
	ld.set("telemetry.counter_inc_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 4096; i++ {
			ctr.Inc()
		}
		return time.Since(t0), 4096
	}))
	fl := telemetry.NewFlight(0)
	ev := telemetry.FlightEvent{Name: "record_sent", Conn: 0, Stream: 2, Bytes: record.MaxPlaintextLen}
	ld.set("telemetry.flight_record_ns", "ns", probe(ld.budget(1.8), func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 1024; i++ {
			ev.Seq++
			fl.Append(ev)
		}
		return time.Since(t0), 1024
	}))
	return nil
}

// --- internal/handshake ---

type openTable struct{}

func (openTable) ValidateJoin(handshake.SessID, handshake.Cookie) bool { return true }

// handshakePair runs a client and a server handshake against each other
// over the in-memory pair and times both to completion.
func handshakePair(client func(*handshake.Transport) error, scfg *handshake.Config) (time.Duration, error) {
	c, s := newMemConnPair()
	defer c.Close()
	defer s.Close()
	serr := make(chan error, 1)
	t0 := time.Now()
	go func() {
		_, err := handshake.Server(handshake.NewTransport(s), scfg)
		serr <- err
	}()
	cerr := client(handshake.NewTransport(c))
	if cerr != nil {
		c.Close() // unblock the server side
	}
	err := <-serr
	d := time.Since(t0)
	if cerr != nil {
		return d, fmt.Errorf("client: %w", cerr)
	}
	if err != nil {
		return d, fmt.Errorf("server: %w", err)
	}
	return d, nil
}

func (ld *ladder) handshakeLayer() error {
	cert, err := handshake.NewCertificate(serverName)
	if err != nil {
		return err
	}
	ks, err := resume.NewMemory()
	if err != nil {
		return err
	}
	psk := make([]byte, 32)
	gen := splitmix64(ld.seed)
	gen.fill(psk)
	ticket, err := ks.Seal(psk)
	if err != nil {
		return err
	}
	scfg := &handshake.Config{
		Certificate: cert, TCPLSServer: true, Sessions: openTable{},
		DecryptTicket: func(t []byte) ([]byte, bool) {
			p, _, _, err := ks.OpenTicket(t)
			return p, err == nil
		},
	}
	clientWith := func(cfg *handshake.Config, want func(*handshake.Result) bool) func(*handshake.Transport) error {
		return func(tr *handshake.Transport) error {
			res, err := handshake.Client(tr, cfg)
			if err == nil && !want(res) {
				err = errors.New("handshake took another path than the probe asked for")
			}
			return err
		}
	}
	full := clientWith(
		&handshake.Config{ServerName: serverName, EnableTCPLS: true},
		func(r *handshake.Result) bool { return r.TCPLSEnabled && !r.Resumed })
	resumed := clientWith(
		&handshake.Config{ServerName: serverName, EnableTCPLS: true, PSK: psk, PSKTicket: ticket},
		func(r *handshake.Result) bool { return r.Resumed })
	join := &handshake.Config{Join: &handshake.JoinTicket{ConnID: 1}}
	fastJoin := func(tr *handshake.Transport) error {
		if err := handshake.StartFastJoin(tr, join); err != nil {
			return err
		}
		return handshake.FinishFastJoin(tr)
	}
	var herr error
	pairUS := func(client func(*handshake.Transport) error) float64 {
		return probe(ld.budget(3), func() (time.Duration, int) {
			d, err := handshakePair(client, scfg)
			if err != nil {
				herr = err
			}
			return d, 1
		}) / 1e3
	}
	ld.set("handshake.full_pair_us", "us", pairUS(full))
	ld.set("handshake.resumed_pair_us", "us", pairUS(resumed))
	ld.set("handshake.fastjoin_pair_us", "us", pairUS(fastJoin))
	if herr != nil {
		return herr
	}
	const n = 20
	m0 := mallocs()
	for i := 0; i < n; i++ {
		if _, err := handshakePair(full, scfg); err != nil {
			return err
		}
	}
	ld.set("handshake.allocs_full", "1/pair", float64(mallocs()-m0)/n)
	return nil
}

// --- the root package over an in-memory connection ---

// memSession is a client session whose server end runs h, joined by a
// memConn pair: the whole wrapper with no kernel under it.
type memSession struct {
	sess   *tcpls.Session
	conn   *memConn
	ln     *tcpls.Listener
	served chan struct{}
}

func newMemSession(h server.Handler) (*memSession, int, error) {
	cert, err := tcpls.NewCertificate(serverName)
	if err != nil {
		return nil, 0, err
	}
	ml := newMemListener()
	m := &memSession{ln: tcpls.NewListener(ml, &tcpls.Config{Certificate: cert}), served: make(chan struct{})}
	before := runtime.NumGoroutine()
	go func() {
		defer close(m.served)
		sess, err := m.ln.Accept()
		if err != nil {
			return
		}
		defer sess.Close()
		h(sess)
	}()
	if m.conn, err = ml.dial(); err != nil {
		return nil, 0, err
	}
	if m.sess, err = tcpls.Client(m.conn, &tcpls.Config{ServerName: serverName}); err != nil {
		m.ln.Close()
		return nil, 0, err
	}
	return m, before, nil
}

func (m *memSession) close() {
	m.sess.Close()
	m.ln.Close()
	<-m.served
}

func (ld *ladder) wrapperLayer() error {
	gen := splitmix64(ld.seed)
	base := make([]byte, blockSize)
	gen.fill(base)
	k := &sink{seed: ld.seed, base: base, epoch: time.Now()}
	m, before, err := newMemSession(k.handle)
	if err != nil {
		return err
	}
	st, err := m.sess.OpenStream()
	if err != nil {
		m.close()
		return err
	}
	block := append([]byte(nil), base...)
	write := func(idx uint64) error {
		putBlockHeader(block, ld.seed, idx)
		_, err := st.Write(block)
		return err
	}
	idx := uint64(0)
	for ; idx < bulkWarmBlocks; idx++ {
		if err := write(idx); err != nil {
			m.close()
			return err
		}
	}
	arrived := func() bool { return k.delivered.Load() == int64(idx)*blockSize }
	if !waitFor(10*time.Second, arrived) {
		m.close()
		return errors.New("in-memory bulk: warm-up blocks did not arrive")
	}
	// Both sessions are up and have carried data. This process started
	// the accept goroutine, which is now the sink; everything else
	// belongs to the two sessions and their listener.
	goroutines := float64(runtime.NumGoroutine()-before-1) / 2
	w0, c0, t0, first := m.conn.bytesWritten.Load(), m.conn.writeCalls.Load(), time.Now(), idx
	footprint := 0
	for time.Since(t0) < ld.budget(5) {
		if err := write(idx); err != nil {
			m.close()
			return err
		}
		idx++
		if idx%16 == 0 {
			f := m.sess.MemoryFootprint()
			if ss := k.sess.Load(); ss != nil {
				f += ss.MemoryFootprint()
			}
			if f > footprint {
				footprint = f
			}
		}
	}
	payload := int64(idx-first) * blockSize
	drained := waitFor(10*time.Second, arrived)
	elapsed := time.Since(t0)
	wire, calls := m.conn.bytesWritten.Load()-w0, m.conn.writeCalls.Load()-c0
	m.close()
	if !drained || k.damaged.Load() > 0 {
		return errors.New("in-memory bulk: sink is missing or rejected blocks")
	}
	ld.set("wrapper.inmem_MBps", "MB/s", float64(payload)/elapsed.Seconds()/1e6)
	ld.res.setNote("wrapper.wire_bytes_per_write", "B", float64(wire)/float64(calls), fmt.Sprintf("%d bytes / %d conn.Write calls, client to server", wire, calls))
	ld.ratioOf("wrapper.wire_overhead_ratio", float64(wire), float64(payload), fmt.Sprintf("%d wire bytes / %d payload bytes", wire, payload))
	ld.res.setNote("wrapper.goroutines_per_session", "count", goroutines, "NumGoroutine over two live sessions, bench's own excluded")
	ld.res.setNote("wrapper.session_bytes", "B", float64(footprint), "largest MemoryFootprint of both ends together during the transfer, sampled every 16 blocks")

	// Round trips of 256 B against the echo handler.
	m, _, err = newMemSession(server.Echo())
	if err != nil {
		return err
	}
	defer m.close()
	if st, err = m.sess.OpenStream(); err != nil {
		return err
	}
	req, resp := base[:256], make([]byte, 256)
	var rerr error
	ld.set("wrapper.inmem_rtt_us", "us", probe(ld.budget(5), func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < 32; i++ {
			if _, err := st.Write(req); err != nil {
				rerr = err
				break
			}
			if _, err := io.ReadFull(st, resp); err != nil {
				rerr = err
				break
			}
		}
		return time.Since(t0), 32
	})/1e3)
	return rerr
}

// --- loopback TCP: the workloads themselves, in short alternating turns ---

// turn is one instance's share of an alternation: what it delivered, and
// how its operations went, while it alone was running.
type turn struct {
	mbps, p50us float64
}

// alternate gives each instance the loopback in turn, rounds times, so
// that a ratio between two of them compares neighbouring moments of the
// same run, not two runs. It returns the median turn of each.
func alternate(insts []instance, rounds int, each time.Duration) []turn {
	type window struct{ from, to time.Time }
	windows := make([][]window, len(insts))
	for r := 0; r < rounds; r++ {
		for i, in := range insts {
			from := time.Now()
			in.run(&phase{start: from, until: from.Add(each)})
			in.settle()
			windows[i] = append(windows[i], window{from, time.Now()})
		}
	}
	out := make([]turn, len(insts))
	for i, in := range insts {
		l := in.logs()
		var mb, p50 []float64
		for _, w := range windows[i] {
			a, b := int64(w.from.Sub(l.epoch)), int64(w.to.Sub(l.epoch))
			var lat []float64
			var bytes int64
			for _, c := range l.clients {
				for _, op := range c.ops {
					if op.end >= a && op.end < b && !op.failed {
						lat = append(lat, float64(op.lat)/1e3)
						bytes += int64(op.bytes)
					}
				}
			}
			for _, d := range in.delivered() {
				if d.t >= a && d.t < b {
					bytes += int64(d.bytes)
				}
			}
			if len(lat) == 0 {
				continue
			}
			sort.Float64s(lat)
			secs := w.to.Sub(w.from).Seconds()
			mb = append(mb, float64(bytes)/secs/1e6)
			p50 = append(p50, percentile(lat, 0.5))
		}
		out[i] = turn{median(mb), median(p50)}
	}
	return out
}

// startAll sets up one instance per variant, warm-up included.
func startAll(w workload, seed uint64, variants []variant) ([]instance, error) {
	var insts []instance
	for _, v := range variants {
		in, err := w.start(params{seed: seed}, v)
		if err == nil {
			if err = in.warm(); err != nil {
				in.finish()
			}
		}
		if err != nil {
			finishAll(insts)
			return nil, err
		}
		insts = append(insts, in)
	}
	return insts, nil
}

func finishAll(insts []instance) (failed int, err error) {
	for _, in := range insts {
		if ferr := in.finish(); ferr != nil && err == nil {
			err = ferr
		}
		l := in.logs()
		if err == nil {
			err = l.firstErr
		}
		failed += l.failedOutsideOps
		for _, c := range l.clients {
			for _, op := range c.ops {
				if op.failed {
					failed++
				}
			}
		}
	}
	return failed, err
}

const ladderRounds = 3

func (ld *ladder) loopbackBulk() error {
	w, _ := workloadByName("bulk_1s")
	insts, err := startAll(w, ld.seed, []variant{{}, {quiet: true}, {plainTLS: true}, {failover2p: true}})
	if err != nil {
		return err
	}
	t := alternate(insts, ladderRounds, ld.budget(2))
	if failed, err := finishAll(insts); err != nil || failed > 0 {
		return fmt.Errorf("loopback bulk rungs: %d failed operations, err=%v", failed, err)
	}
	def, quiet, tls, fo := t[0].mbps, t[1].mbps, t[2].mbps, t[3].mbps
	ld.ratioOf("telemetry.on_off_goodput_ratio", def, quiet, fmt.Sprintf("bulk_1s %.1f MB/s default / %.1f MB/s with telemetry, flight recorder and health off", def, quiet))
	ld.ratioOf("ladder.tcpls_over_tls", def, tls, fmt.Sprintf("bulk_1s %.1f MB/s / %.1f MB/s with DisableTCPLS", def, tls))
	ld.ratioOf("ladder.failover_over_plain", fo, def, fmt.Sprintf("bulk_failover_2p %.1f MB/s / bulk_1s %.1f MB/s", fo, def))
	inmem := ld.value("wrapper.inmem_MBps")
	ld.ratioOf("ladder.loopback_over_inmem", def, inmem, fmt.Sprintf("bulk_1s %.1f MB/s on loopback TCP / wrapper.inmem_MBps %.1f MB/s", def, inmem))
	return nil
}

func (ld *ladder) loopbackRPC() error {
	w, _ := workloadByName("rpc_small")
	insts, err := startAll(w, ld.seed, []variant{{}, {quiet: true}})
	if err != nil {
		return err
	}
	t := alternate(insts, ladderRounds, ld.budget(1.5))
	if failed, err := finishAll(insts); err != nil || failed > 0 {
		return fmt.Errorf("loopback rpc rungs: %d failed operations, err=%v", failed, err)
	}
	ld.ratioOf("telemetry.on_off_rtt_ratio", t[0].p50us, t[1].p50us, fmt.Sprintf("rpc_small p50 %.1f us default / %.1f us with telemetry, flight recorder and health off", t[0].p50us, t[1].p50us))
	return nil
}

// loopbackChurn gives the handshake rungs their end-to-end figure: a
// short connect_churn, with time to first byte split by handshake kind.
func (ld *ladder) loopbackChurn() error {
	w, _ := workloadByName("connect_churn")
	insts, err := startAll(w, ld.seed, []variant{{}})
	if err != nil {
		return err
	}
	in := insts[0]
	from := time.Now()
	in.run(&phase{start: from, until: from.Add(ld.budget(10))})
	secs := time.Since(from).Seconds()
	if failed, err := finishAll(insts); err != nil || failed > 0 {
		return fmt.Errorf("loopback churn rung: %d failed operations, err=%v", failed, err)
	}
	a := int64(from.Sub(in.logs().epoch))
	var lat [numKinds][]float64
	cycles := 0
	for _, op := range in.logs().clients[0].ops {
		if op.end >= a {
			lat[op.kind] = append(lat[op.kind], float64(op.lat)/1e3)
			cycles++
		}
	}
	ld.res.setNote("sessions_per_s", "1/s", float64(cycles)/secs, fmt.Sprintf("%d cycles in %.2f s", cycles, secs))
	for k, name := range kindNames {
		sort.Float64s(lat[k])
		v := 0.0
		if len(lat[k]) > 0 {
			v = percentile(lat[k], 0.5)
		}
		ld.res.setNote("ttfb_"+name+"_p50_us", "us", v, fmt.Sprintf("n=%d", len(lat[k])))
	}
	return nil
}
