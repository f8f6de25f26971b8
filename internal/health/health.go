// Package health is the continuous self-diagnosis engine: a
// low-overhead sampler that snapshots a session's (or the process's)
// telemetry on a fixed tick into bounded time-series rings, derives the
// rates and trends raw counters cannot express (goodput per path,
// retransmit ratio, reorder-depth slope, ACK-RTT drift, resumption
// acceptance, admission pressure), and runs a rule table with
// trip/clear hysteresis over the rings to emit typed Verdicts while the
// session is still alive — the in-situ half of the paper's
// observability story, complementing the post-mortem qlog analyzer.
//
// The design splits three ways:
//
//   - Monitor: one diagnosed entity (a session, or the process rollup).
//     Poll(now) pulls one Sample from the entity's Source, pushes the
//     derived series, and evaluates the rules. Steady-state polls are
//     zero-alloc; allocation is permitted only on verdict transitions,
//     which are rare by construction (hysteresis).
//   - Engine: one process-wide goroutine ticking every registered
//     Monitor on a fixed interval. It starts lazily with the first
//     Register and exits when the last Monitor unregisters, so
//     goroutine-leak gates see nothing between sessions.
//   - Verdict sinks are the caller's: the OnVerdict callback fires on
//     every raise/clear transition with the evidence window attached,
//     and the optional Metrics handle mirrors verdict state into
//     tcpls_health_* Prometheus families.
//
// Deterministic harnesses (internal/fleet) construct Monitors directly
// and Poll them from a virtual clock; the Engine is only for wall-time
// processes.
package health

import "fmt"

// Kind enumerates the diagnosis verdicts.
type Kind uint8

const (
	// Healthy is emitted on the transition back to no active verdicts.
	Healthy Kind = iota
	// StallSuspected: the session holds unacknowledged send data on a
	// live connection but neither acknowledgments nor inbound bytes
	// have progressed for the trip window — the path is moving nothing
	// in either direction.
	StallSuspected
	// RetransmitStorm: the retransmit-to-send ratio has exceeded the
	// configured fraction for consecutive ticks.
	RetransmitStorm
	// MemoryGrowth: buffered memory has grown monotonically across the
	// observation window, is above the absolute floor, and has at
	// least doubled — the signature of a leak or an unbounded queue,
	// as opposed to a workload burst.
	MemoryGrowth
	// PathAsymmetry: two live paths that have both carried data differ
	// in instantaneous goodput by more than the configured ratio —
	// one path of the aggregate is effectively dead weight.
	PathAsymmetry
	// ResumeFailureSpike: the process is rejecting more than the
	// configured fraction of resumption attempts (process monitor).
	ResumeFailureSpike
	// AdmissionPressure: the process has shed connections at the
	// admission edge for consecutive ticks (process monitor).
	AdmissionPressure

	numKinds
)

// String returns the snake_case verdict name; it doubles as the qlog
// event type under the "health" category.
func (k Kind) String() string {
	switch k {
	case Healthy:
		return "healthy"
	case StallSuspected:
		return "stall_suspected"
	case RetransmitStorm:
		return "retransmit_storm"
	case MemoryGrowth:
		return "memory_growth"
	case PathAsymmetry:
		return "path_asymmetry"
	case ResumeFailureSpike:
		return "resume_failure_spike"
	case AdmissionPressure:
		return "admission_pressure"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString is the inverse of Kind.String; ok reports whether name
// is a verdict name (qlog analyzers use it to pick health events out of
// a mixed stream).
func KindFromString(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Verdict is one diagnosis transition: a rule tripping (Raised) or
// clearing after its hysteresis window. Transitions are rare, so a
// Verdict may carry allocated evidence.
type Verdict struct {
	Kind Kind `json:"-"`
	// Name is Kind.String(), duplicated for JSON consumers.
	Name string `json:"kind"`
	// Key identifies the monitored entity (session debug key, or
	// "process").
	Key string `json:"key"`
	// Raised is true when the rule trips, false when it clears.
	Raised bool `json:"raised"`
	// Conn is the implicated connection for path-scoped verdicts
	// (PathAsymmetry names the starved path); 0 otherwise.
	Conn uint32 `json:"conn,omitempty"`
	// AtUS is the transition time, SinceUS the time the rule first
	// tripped (for clears, AtUS-SinceUS is how long it was active).
	AtUS    int64 `json:"at_us"`
	SinceUS int64 `json:"since_us"`
	// Value is the headline evidence scalar: outstanding bytes for a
	// stall, the ratio for a storm or asymmetry, bytes for memory
	// growth, the rejected fraction for a resume spike.
	Value float64 `json:"value"`
	// Metric names the series Evidence was copied from.
	Metric string `json:"metric,omitempty"`
	// Evidence is the observation window that tripped the rule
	// (raises only), oldest first.
	Evidence []Point `json:"evidence,omitempty"`
	// Detail is a one-line human-readable summary.
	Detail string `json:"detail"`
}
