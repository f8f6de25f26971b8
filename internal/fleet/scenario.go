// Package fleet is the campaign engine behind the repo's fleet-scale
// robustness story: it drives thousands of concurrent TCPLS sessions —
// real protocol engines (internal/core) over simulated TCP
// (internal/simtcp) over the DES (internal/sim) — through randomized
// but seed-reproducible fault schedules, then asserts five fleet-wide
// invariants:
//
//  1. byte-exactness: every stream delivers exactly the bytes written;
//  2. bounded memory: reorder and retransmit peaks stay under budgets
//     derived from the PR-5 caps;
//  3. zero goroutine leaks: the whole fleet runs on the caller's
//     goroutine, and nothing may outlive the campaign;
//  4. telemetry count-closure: per connection, records sent equals
//     records delivered (received + dup-dropped + ctl) plus records
//     attributably dropped with a failed connection — no silent loss;
//  5. diagnosis fidelity: internal/health monitors run over every
//     endpoint on the virtual clock and may never raise a verdict on a
//     session no fault touched (spurious diagnosis) nor leave one
//     active after the fleet drains and cools down (stuck diagnosis).
//
// A failing seed is a complete bug report: Result.ReproLine() is a
// one-line `go test` invocation, RunTraced writes a qlog artifact
// `tcpls-trace -check` can analyze, and Shrink bisects the fault
// schedule to a minimal failing subset. Determinism is load-bearing:
// the same Scenario produces the identical fault schedule, packet
// schedule, and invariant metrics every run (see Result.Fingerprint).
package fleet

import (
	"math/rand"
	"sort"
	"time"

	"tcpls/internal/sim"
)

// FaultKind enumerates the fault vocabulary, ported from the
// netem/middlebox relay primitives onto the DES virtual clock.
type FaultKind int

const (
	// FaultRST resets the target session's lowest live connection — the
	// middlebox-injected RST of Sec. 5.5.
	FaultRST FaultKind = iota + 1
	// FaultBlackhole takes the target path down in both directions for
	// Dur (the Sec. 5.3 outage: packets vanish, no error signal).
	FaultBlackhole
	// FaultStall kills only the data-carrying direction of the target
	// path for Dur: ACKs keep flowing, bytes stop — detectable only by
	// the user timeout, and the fault that grows reorder heaps.
	FaultStall
	// FaultDegrade drops the data direction's line rate to 1/8 for Dur —
	// asymmetric-path degradation.
	FaultDegrade
	// FaultRSTStorm resets one connection on every Stride-th session
	// starting at Session — the correlated burst a middlebox reboot or
	// conntrack flush produces.
	FaultRSTStorm
	// FaultRackOutage blackholes every path attached to Rack for Dur —
	// the top-of-rack switch dying under a whole group of sessions.
	FaultRackOutage
	// FaultRestart is a server-process restart under the target session:
	// every live connection dies at once, and the session's resumption
	// ticket is opened against the campaign's shared key store first —
	// the store the "restarted process" recovered from its key file. The
	// campaign verifies the recovered PSK byte-exact, honors
	// reissue-on-rotation, runs the 0-RTT strike register, and treats an
	// aged-out ticket as a clean full-handshake fallback.
	FaultRestart
)

func (k FaultKind) String() string {
	switch k {
	case FaultRST:
		return "rst"
	case FaultBlackhole:
		return "blackhole"
	case FaultStall:
		return "stall"
	case FaultDegrade:
		return "degrade"
	case FaultRSTStorm:
		return "rst_storm"
	case FaultRackOutage:
		return "rack_outage"
	case FaultRestart:
		return "restart"
	default:
		return "fault(?)"
	}
}

// FaultEvent is one scheduled fault. Which fields matter depends on
// Kind: Session/Path target single-session faults, Rack targets
// correlated outages, Stride spaces storm victims, Dur bounds restoring
// faults.
type FaultEvent struct {
	At      sim.Time
	Kind    FaultKind
	Session int
	Path    int
	Rack    int
	Stride  int
	Dur     sim.Time
}

// FaultMix weights the fault kinds in a generated schedule. Zero-value
// mixes get DefaultFaultMix.
type FaultMix struct {
	RST, Blackhole, Stall, Degrade, RSTStorm, RackOutage, Restart int
}

// DefaultFaultMix skews toward the single-session faults the paper's
// experiments use, with a steady minority of correlated ones.
var DefaultFaultMix = FaultMix{RST: 4, Blackhole: 3, Stall: 3, Degrade: 2, RSTStorm: 1, RackOutage: 1}

func (m FaultMix) total() int {
	return m.RST + m.Blackhole + m.Stall + m.Degrade + m.RSTStorm + m.RackOutage + m.Restart
}

// Scenario specifies one campaign. The zero value of every field except
// Seed/Sessions gets a sensible default (see WithDefaults).
type Scenario struct {
	// Seed determines everything: workload shapes, fault schedule,
	// timings. Same seed, same campaign, same metrics.
	Seed int64
	// Sessions is the fleet size.
	Sessions int
	// Duration is the fault-injection window; transfers start inside it
	// and the campaign runs past it until the fleet quiesces.
	Duration sim.Time
	// FaultMix weights the generated schedule's fault kinds.
	FaultMix FaultMix
	// Faults is the number of fault events to generate
	// (default max(8, Sessions/8)).
	Faults int
	// PathsPerSession is the multipath width (default 2).
	PathsPerSession int
	// Racks is the number of correlated failure domains sessions are
	// striped across (default 8).
	Racks int
	// TransferBytes is the per-session payload for plain-stream
	// sessions (default 64 KiB); coupled sessions move coupledMultiplier
	// times as much to exercise the aggregation reorder heap.
	TransferBytes int
	// InjectReorderBug disables the PR-5 buffer caps (reorder heap and
	// retransmit budget) — the intentional regression the harness must
	// catch via its memory invariant (the self-test of the acceptance
	// criteria).
	InjectReorderBug bool
	// KeyRotations schedules this many evenly spaced ticket-key
	// rotations inside Duration, so FaultRestart resumptions land
	// against current, previous, and aged-out key generations. Zero
	// rotates never; the key store is still created (and tickets
	// sealed) whenever the schedule contains a restart fault.
	KeyRotations int
	// Schedule, when non-nil, overrides generation entirely (the
	// shrinker replays subsets through this). The workload side still
	// derives from Seed.
	Schedule []FaultEvent
}

// Campaign-wide protocol constants. Deliberately fixed rather than
// knobs: the invariant budgets below are calibrated against them.
const (
	linkRateBps = 16_000_000 // 2 MB/s per path direction
	linkDelay   = time.Millisecond
	// linkQueue bounds each link's drop-tail queue. Kept small on
	// purpose: the queue is exactly how many bytes a restored path can
	// dump into the reorder heap before the gap-filling replay lands, so
	// it sets the legitimate overshoot above reorderCap. 32 KiB keeps
	// that overshoot well under reorderBudget while the cap-disabled bug
	// blows through it.
	linkQueue = 32 << 10
	// userTimeout is also what separates the memory-invariant regimes:
	// the cap-disabled runaway (InjectReorderBug) grows the reorder heap
	// at ~half the writer rate for one full user timeout before failover
	// fills the gap — ~200 KB at this setting, far over reorderBudget —
	// while the legitimate peak is bounded by the caps regardless of how
	// long a connection takes to die.
	userTimeout = time.Second
	// joinCookies is each client's join budget: its initial paths plus
	// every redial the supervisor makes.
	joinCookies = 60
	pumpEvery   = 10 * time.Millisecond // writer cadence: 4 KiB / 10 ms = 400 KB/s
	chunkBytes  = 4096
	maxPayload  = 4096 // one record per chunk
	reorderCap  = 16 << 10
	reorderRecs = 64
	// retransmitCap is the per-stream retransmit budget, and it is what
	// makes the memory invariant provable rather than empirical: a
	// coupled stream is pinned to its connection, so no connection can
	// ever hold more than retransmitCap unacknowledged bytes — which is
	// exactly the most a surviving connection can dump into the peer's
	// reorder heap behind a gap (correlated outages queue the
	// gap-filling replay behind that same backlog, where the reorder
	// cap's suspect-failover cannot shortcut it).
	retransmitCap = 96 << 10

	// reorderBudget is invariant #2's bound on the coupled reorder
	// heap's byte peak. With the caps enabled the heap is hard-bounded
	// by retransmitCap + reorderCap + one record (~116 KiB): parked
	// records were unacknowledged at send time, so one connection's
	// backlog cannot exceed its stream's retransmit budget. With the
	// caps disabled (InjectReorderBug), nothing parks the writer during
	// a stall and the live path's deliveries pile up for a full user
	// timeout — writer_rate/2 x UserTimeout and beyond, empirically
	// 190-270 KiB. 128 KiB separates the regimes: above the hard bound,
	// well below the runaway.
	reorderBudget = 128 << 10
	// coupledMultiplier scales coupled sessions' transfers relative to
	// plain ones: the transfer must comfortably exceed reorderBudget for
	// the cap-disabled runaway to be visible (see reorderBudget).
	coupledMultiplier = 6
	// retransmitBudget bounds the per-engine retransmit-buffer peak: two
	// coupled streams at retransmitCap each, plus seal-in-progress slop.
	// Exceeding it means the per-stream budget enforcement broke.
	retransmitBudget = 2*retransmitCap + (32 << 10)
)

// WithDefaults resolves zero-valued knobs.
func (sc Scenario) WithDefaults() Scenario {
	if sc.Sessions <= 0 {
		sc.Sessions = 1000
	}
	if sc.Duration <= 0 {
		sc.Duration = 900 * time.Millisecond
	}
	if sc.FaultMix.total() == 0 {
		sc.FaultMix = DefaultFaultMix
	}
	if sc.Faults <= 0 {
		sc.Faults = sc.Sessions / 8
		if sc.Faults < 8 {
			sc.Faults = 8
		}
	}
	if sc.PathsPerSession <= 0 {
		sc.PathsPerSession = 2
	}
	if sc.Racks <= 0 {
		sc.Racks = 8
		if sc.Racks > sc.Sessions {
			sc.Racks = sc.Sessions
		}
	}
	if sc.TransferBytes <= 0 {
		sc.TransferBytes = 64 << 10
	}
	return sc
}

// GenSchedule materializes the fault schedule for sc: an explicit
// Schedule is returned as-is (sorted), otherwise one is generated from
// Seed. The generator draws from its own rand stream — workload shaping
// uses per-session streams derived separately — so replaying a shrunk
// explicit schedule leaves the workload byte-identical.
func GenSchedule(sc Scenario) []FaultEvent {
	sc = sc.WithDefaults()
	if sc.Schedule != nil {
		out := append([]FaultEvent(nil), sc.Schedule...)
		sortSchedule(out)
		return out
	}
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x5DEECE66D))
	mix := sc.FaultMix
	total := mix.total()
	window := int64(sc.Duration - 50*time.Millisecond)
	if window <= 0 {
		window = int64(sc.Duration)
	}
	out := make([]FaultEvent, 0, sc.Faults)
	for i := 0; i < sc.Faults; i++ {
		ev := FaultEvent{
			At:      50*time.Millisecond + sim.Time(rng.Int63n(window)),
			Session: rng.Intn(sc.Sessions),
			Path:    rng.Intn(sc.PathsPerSession),
			Rack:    rng.Intn(sc.Racks),
		}
		switch pick := rng.Intn(total); {
		case pick < mix.RST:
			ev.Kind = FaultRST
		case pick < mix.RST+mix.Blackhole:
			ev.Kind = FaultBlackhole
			ev.Dur = 150*time.Millisecond + sim.Time(rng.Int63n(int64(350*time.Millisecond)))
		case pick < mix.RST+mix.Blackhole+mix.Stall:
			ev.Kind = FaultStall
			// Long enough that only the user timeout resolves it.
			ev.Dur = userTimeout + 100*time.Millisecond + sim.Time(rng.Int63n(int64(400*time.Millisecond)))
		case pick < mix.RST+mix.Blackhole+mix.Stall+mix.Degrade:
			ev.Kind = FaultDegrade
			ev.Dur = 200*time.Millisecond + sim.Time(rng.Int63n(int64(400*time.Millisecond)))
		case pick < mix.RST+mix.Blackhole+mix.Stall+mix.Degrade+mix.RSTStorm:
			ev.Kind = FaultRSTStorm
			ev.Stride = 2 + rng.Intn(6)
		case pick < mix.RST+mix.Blackhole+mix.Stall+mix.Degrade+mix.RSTStorm+mix.Restart:
			ev.Kind = FaultRestart
		default:
			ev.Kind = FaultRackOutage
			ev.Dur = 150*time.Millisecond + sim.Time(rng.Int63n(int64(250*time.Millisecond)))
		}
		out = append(out, ev)
	}
	sortSchedule(out)
	return out
}

// sortSchedule orders events by time, stably, so generation order
// breaks ties deterministically.
func sortSchedule(evs []FaultEvent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}

// sessionRand derives session i's private rand stream from the scenario
// seed: a splitmix64 step keeps neighboring sessions decorrelated
// without any shared sequential draw (which would couple workload
// shapes to fleet size).
func sessionRand(seed int64, i int) *rand.Rand {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}
