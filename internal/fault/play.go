package fault

import "tcpls/internal/sim"

// Net is a simulated network as the virtual-clock executor reaches it:
// sessions numbered from 0, each over at least one path. A fault's
// Session and Path wrap modulo their counts. The fleet, a simtcpls
// client and an MPTCP endpoint are each one.
type Net interface {
	Sessions() int
	// PathsOf returns session i's paths, each oriented from the end that
	// sends the session's data: DataStall and Degrade hit A→B.
	PathsOf(i int) []*sim.Path
	// Reset resets session i's connection over path p.
	Reset(i, p int)
}

// A Fleet is a Net whose sessions are striped across racks (session i in
// rack i % Racks) behind one server process: RackOutage and Restart need
// one. It hears, as each fault fires, which sessions it touches and
// until when.
type Fleet interface {
	Net
	Racks() int
	Restart(i int)
	Touch(i int, until sim.Time)
}

// Play runs sched on s's virtual clock against n: faults due already
// fire now, the others at their time. A fault with a Dur schedules its
// own end when it fires; one without lasts. Play
// refuses, with an *Unsupported error and before anything fires, a
// schedule holding a kind a simulated network cannot express: Stall,
// Unstall, HalfClose, KillAfter and the stream rewrites, and RackOutage
// and Restart unless n is a Fleet.
func Play(s *sim.Sim, n Net, sched Schedule) error {
	kinds := []Kind{RST, Blackhole, Restore, DataStall, Degrade, RSTStorm}
	fl, isFleet := n.(Fleet)
	if isFleet {
		kinds = append(kinds, RackOutage, Restart)
	}
	if err := sched.Check("simulated network", kinds...); err != nil {
		return err
	}
	// nominal is each degraded link's rate before its first Degrade, which
	// every Degrade's end restores.
	nominal := map[*sim.Link]int64{}
	fire := func(f Fault) {
		ns := n.Sessions()
		if ns == 0 {
			return
		}
		i := f.Session % ns
		hit := []int{i}
		switch f.Kind {
		case RSTStorm:
			for j := i + max(f.Stride, 1); j < ns; j += max(f.Stride, 1) {
				hit = append(hit, j)
			}
		case RackOutage:
			hit = hit[:0]
			for j := f.Rack % fl.Racks(); j < ns; j += fl.Racks() {
				hit = append(hit, j)
			}
		}
		if isFleet {
			for _, j := range hit {
				fl.Touch(j, f.At+f.Dur)
			}
		}
		ps := n.PathsOf(i)
		p := ps[f.Path%len(ps)]
		var down []*sim.Link // what the fault drops until its end
		switch f.Kind {
		case RST, RSTStorm:
			for _, j := range hit {
				n.Reset(j, f.Path%len(n.PathsOf(j)))
			}
		case Restart:
			fl.Restart(i)
		case Restore:
			p.SetDown(false)
		case Blackhole:
			down = []*sim.Link{p.AtoB, p.BtoA}
		case DataStall:
			down = []*sim.Link{p.AtoB}
		case RackOutage:
			for _, j := range hit {
				for _, q := range n.PathsOf(j) {
					down = append(down, q.AtoB, q.BtoA)
				}
			}
		case Degrade:
			l := p.AtoB
			if _, ok := nominal[l]; !ok {
				nominal[l] = l.RateBps
			}
			l.SetRateBps(nominal[l] / 8)
			if f.Dur > 0 {
				s.At(f.At+f.Dur, func() { l.SetRateBps(nominal[l]) })
			}
		}
		for _, l := range down {
			l.Down = true
		}
		if f.Dur > 0 && len(down) > 0 {
			s.At(f.At+f.Dur, func() {
				for _, l := range down {
					l.Down = false
				}
			})
		}
	}
	for _, f := range sched {
		if f.At <= s.Now() {
			fire(f)
		} else {
			s.At(f.At, func() { fire(f) })
		}
	}
	return nil
}
