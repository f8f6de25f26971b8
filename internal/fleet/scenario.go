// Package fleet is the campaign engine behind the repo's fleet-scale
// robustness story: it drives thousands of concurrent TCPLS sessions —
// real protocol engines (internal/core) over simulated TCP
// (internal/simtcp) over the DES (internal/sim) — through randomized
// but seed-reproducible fault schedules, then asserts six fleet-wide
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
//     active after the fleet drains and cools down (stuck diagnosis);
//  6. bounded progress: after the last fault that touched it, every
//     session delivers its last byte or ends with a typed error within
//     progressBound of virtual time.
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
	"slices"
	"time"

	"tcpls/internal/fault"
	"tcpls/internal/sim"
)

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
	FaultMix fault.Mix
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
	// InjectReorderBug turns the send window off, and with it the
	// reader's reorder limit — the intentional regression the harness
	// must catch via its memory invariant (the self-test of the
	// acceptance criteria).
	InjectReorderBug bool
	// DefaultCaps runs every session at the engine's default send window
	// and reorder limit instead of the campaign's small ones; invariant
	// 2's budgets become those defaults.
	DefaultCaps bool
	// KeyRotations schedules this many evenly spaced ticket-key
	// rotations inside Duration, so restart resumptions land
	// against current, previous, and aged-out key generations. Zero
	// rotates never.
	KeyRotations int
	// Schedule, when non-nil, overrides generation entirely (the
	// shrinker replays subsets through this). The workload side still
	// derives from Seed.
	Schedule fault.Schedule
}

// Campaign-wide protocol constants. Deliberately fixed rather than
// knobs: the invariant budgets below are calibrated against them.
const (
	linkRateBps = 16_000_000 // 2 MB/s per path direction
	linkDelay   = time.Millisecond
	// linkQueue bounds each link's drop-tail queue.
	linkQueue = 32 << 10
	// userTimeout recovers a stalled path, and separates the memory
	// invariant's regimes: with the window off (InjectReorderBug) the
	// reorder heap grows at ~half the writer rate for one full user
	// timeout before failover fills the gap — ~200 KB, far over
	// reorderBudget.
	userTimeout = time.Second
	// joinCookies is the cookies the server issues in each initial
	// handshake: the client's budget for its other paths and its
	// redials. The server replaces each one a join spends (§3.3.2).
	joinCookies = 8
	// handshakeTimeout is the acceptor's deadline, past the longest
	// handshake a generated fault can delay (a stall, then TCP's
	// backoff); stallAccept outlasts it, and so does the client's
	// dialTimeout, so the server's deadline ends a stalled handshake.
	handshakeTimeout = 5 * time.Second
	stallAccept      = 6 * time.Second
	dialTimeout      = 6 * time.Second
	pumpEvery        = 10 * time.Millisecond // writer cadence: 4 KiB / 10 ms = 400 KB/s
	chunkBytes       = 4096
	maxPayload       = 4096 // one record per chunk
	// retransmitCap is the send window, which makes the memory invariant
	// provable: the reader's reorder heap only holds records within it.
	// The reader's limit, reorderCap and reorderRecs, is at least one
	// window (24 records of maxPayload): honest sessions never reach it.
	retransmitCap = 96 << 10
	reorderCap    = retransmitCap
	reorderRecs   = 64

	// reorderBudget is invariant #2's bound on the coupled reorder
	// heap's byte peak: below one window with the window on, 190-270 KiB
	// with it off (InjectReorderBug). 128 KiB separates the regimes.
	reorderBudget = 128 << 10
	// coupledMultiplier scales coupled sessions' transfers relative to
	// plain ones: the transfer must comfortably exceed reorderBudget for
	// the window-off runaway to be visible (see reorderBudget).
	coupledMultiplier = 6
	// retransmitBudget bounds the per-engine retransmit-buffer peak: one
	// window, for one plain stream or the coupled group.
	retransmitBudget = retransmitCap
	// progressBound is invariant #6's bound (progressViolation). A
	// writer held through the longest generated fault (a stall,
	// userTimeout + 500 ms) resumes a user timeout after it began at the
	// latest; the rest covers redials and TCP's backoff. Seeds 1-4 and
	// the restart mix peak at 1.4 s.
	progressBound = 4 * time.Second
)

// WithDefaults resolves zero-valued knobs.
func (sc Scenario) WithDefaults() Scenario {
	if sc.Sessions <= 0 {
		sc.Sessions = 1000
	}
	if sc.Duration <= 0 {
		sc.Duration = 900 * time.Millisecond
	}
	if sc.FaultMix.Total() == 0 {
		sc.FaultMix = fault.DefaultMix
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

// schedule materializes the fault schedule for sc: an explicit Schedule
// sorted, otherwise one generated from Seed (fault.Gen).
func (sc Scenario) schedule() fault.Schedule {
	sc = sc.WithDefaults()
	if sc.Schedule != nil {
		out := slices.Clone(sc.Schedule)
		out.Sort()
		return out
	}
	return fault.Gen(fault.Spec{Seed: sc.Seed, Faults: sc.Faults, Mix: sc.FaultMix, Window: sc.Duration,
		Sessions: sc.Sessions, Paths: sc.PathsPerSession, Racks: sc.Racks, UserTimeout: userTimeout})
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
