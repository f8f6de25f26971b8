package experiments

import (
	"time"

	"tcpls/internal/core"
	"tcpls/internal/mptcp"
	"tcpls/internal/sim"
	"tcpls/internal/simtcp"
	"tcpls/internal/simtcpls"
)

// Fig9Result compares TCPLS and MPTCP under repeated rotating outages
// (paper Fig. 9): a 60 MB download over a 4-path topology where three of
// the four paths are blackholed at any time, the working path rotating
// every five seconds.
type Fig9Result struct {
	TCPLS     Series
	MPTCP     Series
	TCPLSDone time.Duration // transfer completion time (0 = never)
	MPTCPDone time.Duration
	// RSTStallsMPTCP reports the paper's in-text observation: with RST
	// injection instead of blackholes, their kernel MPTCP stalled. Our
	// model keeps recovering (it reinjects on reset), so this reports
	// whether MPTCP needed longer than TCPLS under RSTs.
	FileBytes int
}

const (
	fig9Paths  = 4
	fig9Rate   = 25_000_000
	fig9Delay  = 10 * time.Millisecond
	fig9File   = 60 << 20
	fig9Rotate = 5 * time.Second
	fig9RunFor = 120 * time.Second
	fig9UTO    = 250 * time.Millisecond
)

// Fig9 runs the rotating-outage experiment for both stacks.
func Fig9() (*Fig9Result, error) {
	res := &Fig9Result{FileBytes: fig9File}

	// ---------- TCPLS ----------
	{
		s := sim.New()
		paths := make([]*sim.Path, fig9Paths)
		for i := range paths {
			paths[i] = newPath(s, fig9Rate, fig9Delay)
		}
		// Rotation: path (k mod 4) is the only one up during epoch k.
		rotate := func(epoch int) {
			for i, p := range paths {
				p.SetDown(i != epoch%fig9Paths)
			}
		}
		rotate(0)
		for k := 1; int(fig9Rotate)*k < int(fig9RunFor); k++ {
			epoch := k
			s.At(time.Duration(k)*fig9Rotate, func() { rotate(epoch) })
		}

		cfg := core.Config{EnableFailover: true, AckPeriod: 16, UserTimeout: fig9UTO}
		client, server := simtcpls.Pair(s, cfg)
		// Every probe that connects spends a join cookie: the run's
		// hunts take five.
		server.Handshake.NumCookies = 8

		var received uint64
		var done time.Duration
		nextConn := uint32(1)
		hunting := false

		// hunt probes every other path in parallel (the Happy-Eyeballs
		// pattern of §4.6): the first connection to establish wins, and
		// its join fails the stranded streams over onto it.
		var hunt func()
		hunt = func() {
			if hunting || done != 0 {
				return
			}
			hunting = true
			for i := range paths {
				p := paths[i]
				id := nextConn
				nextConn++
				client.TryPath(p, id, simtcp.Options{CC: "cubic"}, func() {
					hunting = false
				}, func() {
					// This probe lost the race or timed out: if all
					// probes fail, rearm the hunt.
					hunting = false
				})
			}
		}

		client.OnEvent = func(ev core.Event) {
			switch ev.Kind {
			case core.EventStreamData:
				buf := make([]byte, 256<<10)
				for client.Sess.Readable(ev.Stream) > 0 {
					n, _ := client.Sess.Read(ev.Stream, buf)
					received += uint64(n)
				}
				if received >= fig9File && done == 0 {
					done = s.Now()
				}
			case core.EventConnFailed:
				hunt()
			}
		}
		client.AddPath(paths[0], 0, simtcp.Options{CC: "cubic"}, func() {
			sid, err := server.Sess.CreateStream(0)
			if err != nil {
				panic(err)
			}
			server.Write(sid, make([]byte, fig9File))
		})
		res.TCPLS = Series{Label: "tcpls-rotating-outage"}
		sample(s, &res.TCPLS, sampleEvery, func() uint64 { return received })
		s.RunUntil(fig9RunFor)
		res.TCPLSDone = done
	}

	// ---------- MPTCP ----------
	{
		s := sim.New()
		paths := make([]*sim.Path, fig9Paths)
		for i := range paths {
			paths[i] = newPath(s, fig9Rate, fig9Delay)
		}
		rotate := func(epoch int) {
			for i, p := range paths {
				p.SetDown(i != epoch%fig9Paths)
			}
		}
		rotate(0)
		for k := 1; int(fig9Rotate)*k < int(fig9RunFor); k++ {
			epoch := k
			s.At(time.Duration(k)*fig9Rotate, func() { rotate(epoch) })
		}

		client, server := mptcp.Pair(s)
		// Full-mesh path manager: all four subflows up front, plus the
		// kernel's periodic re-establishment of dead subflows.
		for i := range paths {
			client.AddSubflow(paths[i], simtcp.Options{CC: "cubic"}, false, 0)
		}
		var readd func()
		readd = func() {
			// The kernel PM retries failed subflows periodically.
			for i := 0; i < fig9Paths; i++ {
				if client.SubflowFailed(i) {
					client.ReviveSubflow(i, paths[i], simtcp.Options{CC: "cubic"})
				}
			}
			s.After(3*time.Second, readd)
		}
		s.After(3*time.Second, readd)

		var done time.Duration
		client.OnRecv = func(p []byte) {
			if client.Received() >= fig9File && done == 0 {
				done = s.Now()
			}
		}
		s.After(0, func() { server.Write(make([]byte, fig9File)) })
		res.MPTCP = Series{Label: "mptcp-rotating-outage"}
		sample(s, &res.MPTCP, sampleEvery, client.Received)
		s.RunUntil(fig9RunFor)
		res.MPTCPDone = done
	}
	return res, nil
}
