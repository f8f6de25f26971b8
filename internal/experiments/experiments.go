// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5). Each Fig* function runs one experiment —
// deterministic simulations for the Mininet figures, real CPU pipelines
// for the raw-performance figure — and returns structured results that
// cmd/tcpls-experiments prints and this package's tests assert on.
//
// DESIGN.md's experiment index maps each function to the paper's table
// or figure and records the expected shape.
package experiments

import (
	"fmt"
	"time"

	"tcpls/internal/sim"
)

// Point is one goodput sample.
type Point struct {
	T    time.Duration
	Mbps float64
}

// Series is a labeled goodput-over-time curve.
type Series struct {
	Label  string
	Points []Point
}

// Mean returns the average goodput over the series.
func (s Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Mbps
	}
	return sum / float64(len(s.Points))
}

// MeanBetween averages goodput over [from, to).
func (s Series) MeanBetween(from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			sum += p.Mbps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Max returns the series' peak goodput.
func (s Series) Max() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Mbps > max {
			max = p.Mbps
		}
	}
	return max
}

// sampler turns a monotone byte counter into a goodput series.
type sampler struct {
	s        *sim.Sim
	series   *Series
	counter  func() uint64
	interval time.Duration
	last     uint64
	stop     bool
}

// sample starts periodic goodput sampling of counter into series.
func sample(s *sim.Sim, series *Series, interval time.Duration, counter func() uint64) *sampler {
	sm := &sampler{s: s, series: series, counter: counter, interval: interval}
	var tick func()
	tick = func() {
		if sm.stop {
			return
		}
		cur := counter()
		delta := cur - sm.last
		sm.last = cur
		mbps := float64(delta) * 8 / interval.Seconds() / 1e6
		series.Points = append(series.Points, Point{T: s.Now(), Mbps: mbps})
		s.After(interval, tick)
	}
	s.After(interval, tick)
	return sm
}

// recoveryAfter returns the first time >= outage at which goodput
// exceeds threshold Mbps, or 0 if it never does.
func recoveryAfter(s Series, outage time.Duration, threshold float64) time.Duration {
	for _, p := range s.Points {
		if p.T > outage && p.Mbps >= threshold {
			return p.T
		}
	}
	return 0
}

// newPath builds an experiment path with Mininet-like buffering: a
// drop-tail queue of two bandwidth-delay products absorbs slow-start
// overshoot the way the paper's emulated links do.
func newPath(s *sim.Sim, rateBps int64, oneWay time.Duration) *sim.Path {
	p := sim.NewPath(s, rateBps, oneWay)
	bdp := int(rateBps / 8 * int64(2*oneWay) / int64(time.Second))
	q := 2 * bdp
	if q < 128<<10 {
		q = 128 << 10
	}
	p.AtoB.QueueBytes = q
	p.BtoA.QueueBytes = q
	return p
}

// FormatSeries renders a series as gnuplot-ready rows.
func FormatSeries(s Series) string {
	out := fmt.Sprintf("# %s\n# t(s)  goodput(Mbps)\n", s.Label)
	for _, p := range s.Points {
		out += fmt.Sprintf("%7.2f  %8.2f\n", p.T.Seconds(), p.Mbps)
	}
	return out
}
