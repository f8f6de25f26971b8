package experiments

import (
	"syscall"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/driver"
	"tcpls/internal/handshake"
	"tcpls/internal/miniquic"
	"tcpls/internal/record"
)

// Fig7Row is one bar of the paper's Fig. 7: a protocol stack's raw
// in-memory throughput at a given MTU, per second of process CPU time.
type Fig7Row struct {
	Stack string
	MTU   int
	Gbps  float64
	KPPS  float64 // thousand wire packets per second
}

// Fig7 measures every stack of the paper's Fig. 7 moving totalBytes of
// bulk data through its full userspace data plane (encrypt, frame,
// deframe, decrypt, plus each stack's bookkeeping). Absolute numbers are
// this machine's, not the paper's 40 GbE testbed; DESIGN.md's claim
// under test is the ordering and rough ratios: TCPLS ≈ TLS/TCP,
// failover a few percent below, multipath coupling below that, and
// every QUIC configuration well under half of TCPLS. Each run is timed
// in process CPU time (cpuSeconds), so whatever else the host runs does
// not count against a stack.
func Fig7(mtu int, totalBytes int) ([]Fig7Row, error) {
	var rows []Fig7Row
	add := func(stack string, bytes int, seconds float64, packets uint64) {
		rows = append(rows, Fig7Row{
			Stack: stack,
			MTU:   mtu,
			Gbps:  float64(bytes) * 8 / seconds / 1e9,
			KPPS:  float64(packets) / seconds / 1e3,
		})
	}

	// --- TLS/TCP: plain 16 KiB record pipeline (seal → deframe → open).
	secs, err := tlsTCPPipeline(totalBytes, mtu)
	if err != nil {
		return nil, err
	}
	add("tls-tcp", totalBytes, secs, uint64(totalBytes/mtu))

	// --- TCPLS variants through the real engine.
	for _, v := range []struct {
		name string
		cfg  core.Config
		mp   bool
	}{
		{"tcpls", core.Config{}, false},
		{"tcpls-failover", core.Config{EnableFailover: true, AckPeriod: 16}, false},
		{"tcpls-multipath", core.Config{EnableFailover: true, AckPeriod: 16}, true},
	} {
		secs, err := tcplsPipeline(totalBytes, v.cfg, v.mp)
		if err != nil {
			return nil, err
		}
		add(v.name, totalBytes, secs, uint64(totalBytes/mtu))
	}

	// --- QUIC implementations.
	for _, cfg := range []miniquic.Config{miniquic.Quicly, miniquic.MsQuic, miniquic.Mvfst} {
		if mtu >= 9000 {
			cfg = cfg.Jumbo()
		}
		p, err := miniquic.New(cfg)
		if err != nil {
			return nil, err
		}
		data := make([]byte, 1<<20)
		start := cpuSeconds()
		moved := 0
		for moved < totalBytes {
			n, err := p.Transfer(data)
			if err != nil {
				return nil, err
			}
			moved += n
		}
		add(cfg.Name, moved, cpuSeconds()-start, p.Packets)
	}
	return rows, nil
}

// tlsTCPPipeline is the TCP/TLS baseline: the picotls-equivalent loop of
// §5.1 — full 16 KiB records sealed by the sender, deframed and opened
// in place by the receiver. MTU does not change the crypto (TSO).
func tlsTCPPipeline(totalBytes, mtu int) (float64, error) {
	suite, err := record.SuiteByID(record.TLSAES128GCMSHA256)
	if err != nil {
		return 0, err
	}
	secret := make([]byte, 32)
	key, iv := record.DeriveTrafficKeys(suite, secret)
	send, err := record.NewStreamContext(suite, key, iv, 0)
	if err != nil {
		return 0, err
	}
	recv, err := record.NewStreamContext(suite, key, iv, 0)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, record.MaxPlaintextLen)
	var deframer record.Deframer
	buf := make([]byte, 0, record.MaxRecordLen)

	start := cpuSeconds()
	moved := 0
	for moved < totalBytes {
		buf, err = send.Seal(buf[:0], record.ContentTypeApplicationData, payload, 0)
		if err != nil {
			return 0, err
		}
		deframer.Feed(buf)
		rec, ok, err := deframer.Next()
		if err != nil || !ok {
			return 0, err
		}
		_, content, err := recv.Open(rec)
		if err != nil {
			return 0, err
		}
		moved += len(content)
	}
	return cpuSeconds() - start, nil
}

// tcplsPipeline pushes bytes through a real engine pair in memory, each
// engine run by internal/driver: framing, per-stream contexts, trial
// decryption, and — when enabled — acknowledgments and retransmission
// buffering, or multipath coupling with receiver reordering.
func tcplsPipeline(totalBytes int, cfg core.Config, multipath bool) (float64, error) {
	suite, _ := record.SuiteByID(record.TLSAES128GCMSHA256)
	mk := func(tag byte) []byte {
		b := make([]byte, 32)
		for i := range b {
			b[i] = tag
		}
		return b
	}
	sec := handshake.Secrets{Suite: suite, ClientApp: mk(1), ServerApp: mk(2)}
	sender := core.NewSession(core.RoleServer, sec, cfg)
	receiver := core.NewSession(core.RoleClient, sec, cfg)
	// The pump below moves the bytes and the pipeline measures CPU, not
	// time: nothing is woken, timed or dialed.
	sd := driver.New(sender, driver.Config{}, driver.Nop{}, driver.Nop{}, 0)
	rd := driver.New(receiver, driver.Config{Client: true}, driver.Nop{}, driver.Nop{}, 0)

	conns := []uint32{0}
	if multipath {
		conns = []uint32{0, 1}
	}
	for _, id := range conns {
		if err := sd.Start(sd.Add(id, ""), driver.Nop{}, nil); err != nil {
			return 0, err
		}
		if err := rd.Start(rd.Add(id, ""), driver.Nop{}, nil); err != nil {
			return 0, err
		}
	}
	var streams []uint32
	for _, id := range conns {
		sid, err := sender.CreateStream(id)
		if err != nil {
			return 0, err
		}
		streams = append(streams, sid)
	}
	var moved int
	receiver.DeliverData = func(streamID uint32, payload []byte) { moved += len(payload) }
	receiver.DeliverCoupled = func(payload []byte) { moved += len(payload) }
	batch := make([][]byte, 0, 1)
	pump := func() error {
		// Data one way, then the acks it provoked the other way.
		for _, dir := range [2][2]*driver.Driver{{sd, rd}, {rd, sd}} {
			from, to := dir[0], dir[1]
			from.Flush()
			for i, c := range from.Conns() {
				for {
					if batch = from.Pull(c, batch[:0], 1); len(batch) == 0 {
						break
					}
					if err := to.Receive(to.Conns()[i], batch[0]); err != nil {
						return err
					}
					from.Settle(c, batch, int64(len(batch[0])), nil)
				}
			}
		}
		return nil
	}
	if multipath {
		for _, sid := range streams {
			sender.SetCoupled(sid, true)
		}
	}
	if err := pump(); err != nil { // deliver stream attaches
		return 0, err
	}

	chunk := make([]byte, 1<<20)
	start := cpuSeconds()
	for moved < totalBytes {
		if multipath {
			if _, err := sender.WriteCoupled(chunk); err != nil {
				return 0, err
			}
		} else {
			if _, err := sender.Write(streams[0], chunk); err != nil {
				return 0, err
			}
		}
		if err := pump(); err != nil {
			return 0, err
		}
	}
	return cpuSeconds() - start, nil
}

// cpuSeconds is the CPU time the process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad who or pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
