package experiments

import (
	"fmt"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/fault"
	"tcpls/internal/mptcp"
	"tcpls/internal/sim"
	"tcpls/internal/simtcp"
	"tcpls/internal/simtcpls"
)

// Fig8Result holds one outage type's recovery comparison (paper Fig. 8).
type Fig8Result struct {
	Outage        string // "blackhole" or "rst"
	TCPLS         Series
	MPTCP         Series
	TCPLSRecovery time.Duration // time from outage to restored goodput
	MPTCPRecovery time.Duration
}

// Fig. 8 topology: two disjoint paths, 25 Mbps, 10 ms one-way latency
// (the paper's Mininet defaults for Sec. 5.3), outage at t = 3 s,
// TCP User Timeout 250 ms.
const (
	fig8Rate    = 25_000_000
	fig8Delay   = 10 * time.Millisecond
	fig8Outage  = 3 * time.Second
	fig8UTO     = 250 * time.Millisecond
	fig8File    = 30 << 20
	fig8RunFor  = 20 * time.Second
	fig8Thresh  = 5.0 // Mbps counted as "transfer resumed"
	sampleEvery = 100 * time.Millisecond
)

// Fig8 reproduces the paper's Fig. 8: goodput over time for TCPLS and
// MPTCP during a single outage of the active path. outage is
// "blackhole" (middlebox discarding traffic; detection needs the
// 250 ms UserTimeout plus a fresh join, ≈1 s total for TCPLS) or "rst"
// (a spurious reset: an explicit signal both stacks react to quickly).
func Fig8(outage string) (*Fig8Result, error) {
	var kind fault.Kind
	if err := kind.UnmarshalText([]byte(outage)); err != nil || kind != fault.Blackhole && kind != fault.RST {
		return nil, fmt.Errorf("fig8: unknown outage type %q", outage)
	}
	// The outage hits path 0 and lasts.
	sched := fault.Schedule{{At: fig8Outage, Kind: kind}}
	res := &Fig8Result{Outage: outage}

	// ---------- TCPLS ----------
	{
		s := sim.New()
		p0 := newPath(s, fig8Rate, fig8Delay)
		p1 := newPath(s, fig8Rate, fig8Delay)
		cfg := core.Config{EnableFailover: true, AckPeriod: 16, UserTimeout: fig8UTO}
		client, server := simtcpls.Pair(s, cfg)

		var received uint64
		failedOnce := false
		client.OnEvent = func(ev core.Event) {
			switch ev.Kind {
			case core.EventStreamData:
				buf := make([]byte, 256<<10)
				for client.Sess.Readable(ev.Stream) > 0 {
					n, _ := client.Sess.Read(ev.Stream, buf)
					received += uint64(n)
				}
			case core.EventConnFailed:
				if failedOnce {
					return
				}
				failedOnce = true
				// Break-before-make: open and join a connection on the
				// other path; the join resynchronizes the parked stream
				// (Fig. 4).
				client.TryPath(p1, 1, simtcp.Options{CC: "cubic"}, nil, nil)
			}
		}
		client.AddPath(p0, 0, simtcp.Options{CC: "cubic"}, func() {
			sid, err := server.Sess.CreateStream(0)
			if err != nil {
				panic(err)
			}
			server.Write(sid, make([]byte, fig8File))
		})
		res.TCPLS = Series{Label: "tcpls-" + outage}
		sample(s, &res.TCPLS, sampleEvery, func() uint64 { return received })

		client.Paths = []*sim.Path{p0, p1}
		if err := fault.Play(s, client, sched); err != nil {
			return nil, err
		}
		s.RunUntil(fig8RunFor)
		if at := recoveryAfter(res.TCPLS, fig8Outage, fig8Thresh); at > 0 {
			res.TCPLSRecovery = at - fig8Outage
		}
	}

	// ---------- MPTCP (backup mode, as in the paper) ----------
	{
		s := sim.New()
		p0 := newPath(s, fig8Rate, fig8Delay)
		p1 := newPath(s, fig8Rate, fig8Delay)
		client, server := mptcp.Pair(s)
		client.BackupMode = true
		server.BackupMode = true
		client.AddSubflow(p0, simtcp.Options{CC: "cubic"}, false, 0)
		client.AddSubflow(p1, simtcp.Options{CC: "cubic"}, true, 0)

		// Server pushes the download (client receives).
		s.After(0, func() { server.Write(make([]byte, fig8File)) })

		res.MPTCP = Series{Label: "mptcp-" + outage}
		sample(s, &res.MPTCP, sampleEvery, client.Received)

		server.Paths = []*sim.Path{p0, p1}
		if err := fault.Play(s, server, sched); err != nil {
			return nil, err
		}
		s.RunUntil(fig8RunFor)
		if at := recoveryAfter(res.MPTCP, fig8Outage, fig8Thresh); at > 0 {
			res.MPTCPRecovery = at - fig8Outage
		}
	}
	return res, nil
}
