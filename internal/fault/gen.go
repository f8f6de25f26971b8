package fault

import (
	"math/rand"
	"time"
)

// Mix weights the kinds of a generated schedule.
type Mix struct {
	RST, Blackhole, DataStall, Degrade, RSTStorm, RackOutage, Restart int
}

// DefaultMix skews toward the single-session faults the paper's
// experiments use, with a steady minority of correlated ones.
var DefaultMix = Mix{RST: 4, Blackhole: 3, DataStall: 3, Degrade: 2, RSTStorm: 1, RackOutage: 1}

// Total is the sum of the weights.
func (m Mix) Total() int {
	return m.RST + m.Blackhole + m.DataStall + m.Degrade + m.RSTStorm + m.RackOutage + m.Restart
}

// Spec is what Gen draws a schedule over.
type Spec struct {
	Seed   int64
	Faults int // how many
	Mix    Mix // zero: DefaultMix
	// Window: faults fall in [50ms, Window), or [50ms, 50ms+Window) if
	// it is that short.
	Window                 time.Duration
	Sessions, Paths, Racks int
	// UserTimeout: a data stall outlasts it, so that only the user
	// timeout resolves it.
	UserTimeout time.Duration
}

// Gen draws sp's schedule from its seed. It draws from a stream of its
// own, so that a workload seeded alike is independent of it, and
// replaying a shrunk schedule leaves the workload byte-identical.
func Gen(sp Spec) Schedule {
	rng := rand.New(rand.NewSource(sp.Seed ^ 0x5DEECE66D))
	mix := sp.Mix
	if mix.Total() == 0 {
		mix = DefaultMix
	}
	total := mix.Total()
	window := int64(sp.Window - 50*time.Millisecond)
	if window <= 0 {
		window = int64(sp.Window)
	}
	out := make(Schedule, 0, sp.Faults)
	for i := 0; i < sp.Faults; i++ {
		f := Fault{
			At:      50*time.Millisecond + time.Duration(rng.Int63n(window)),
			Session: rng.Intn(sp.Sessions),
			Path:    rng.Intn(sp.Paths),
			Rack:    rng.Intn(sp.Racks),
		}
		pick := rng.Intn(total)
		for _, w := range []struct {
			k Kind
			n int
		}{{RST, mix.RST}, {Blackhole, mix.Blackhole}, {DataStall, mix.DataStall}, {Degrade, mix.Degrade},
			{RSTStorm, mix.RSTStorm}, {Restart, mix.Restart}, {RackOutage, mix.RackOutage}} {
			if f.Kind = w.k; pick < w.n {
				break
			}
			pick -= w.n
		}
		switch f.Kind {
		case Blackhole:
			f.Dur = 150*time.Millisecond + time.Duration(rng.Int63n(int64(350*time.Millisecond)))
		case DataStall:
			f.Dur = sp.UserTimeout + 100*time.Millisecond + time.Duration(rng.Int63n(int64(400*time.Millisecond)))
		case Degrade:
			f.Dur = 200*time.Millisecond + time.Duration(rng.Int63n(int64(400*time.Millisecond)))
		case RSTStorm:
			f.Stride = 2 + rng.Intn(6)
		case RackOutage:
			f.Dur = 150*time.Millisecond + time.Duration(rng.Int63n(int64(250*time.Millisecond)))
		}
		out = append(out, f)
	}
	out.Sort()
	return out
}

// Shrink minimizes a failing schedule by delta debugging (ddmin): it
// drops chunks of s for as long as fails still holds, within maxTrials
// calls of fails. It returns the smallest failing schedule found and the
// calls spent; a schedule that does not fail comes back whole after one.
// Soundness needs fails to be deterministic, and to depend on the
// schedule only through the faults it holds.
func Shrink(s Schedule, maxTrials int, fails func(Schedule) bool) (Schedule, int) {
	trials := 1
	if !fails(s) {
		return s, trials
	}
	chunks := 2
	for len(s) > 1 && trials < maxTrials {
		size := (len(s) + chunks - 1) / chunks
		reduced := false
		for lo := 0; lo < len(s) && trials < maxTrials; lo += size {
			hi := min(lo+size, len(s))
			// Try the complement: s without s[lo:hi].
			cand := append(append(make(Schedule, 0, len(s)-(hi-lo)), s[:lo]...), s[hi:]...)
			trials++
			if fails(cand) {
				s, chunks, reduced = cand, min(2, len(cand)), true
				break
			}
		}
		if !reduced {
			if chunks >= len(s) {
				break
			}
			chunks = min(chunks*2, len(s))
		}
	}
	return s, trials
}
