// Package sched is the sender-side multipath record-scheduling
// subsystem (paper §3.3.3): a path-metrics store fed by record-level
// acknowledgments, and stateful schedulers the protocol engine consults
// once per coupled record.
//
// The package is transport-agnostic. internal/core feeds the store
// (record sent / acked / lost), builds PathView snapshots before each
// scheduling round, and applies the scheduler's picks; the public tcpls
// wrapper selects a scheduler by name (Config.Scheduler, ByName).
package sched

import "time"

// PickAll is a sentinel Pick result: seal the record on every candidate
// path (the Redundant scheduler). The receiver's aggregation-sequence
// reorder buffer drops the duplicate copies, so exactly one survives.
const PickAll = -1

// PathView is a read-only snapshot of one candidate path, built by the
// engine from the Metrics store just before a scheduling round. One
// view per coupled stream; a connection carrying several coupled
// streams appears once per stream with identical metric fields.
type PathView struct {
	// Stream is the coupled stream this view represents; Conn is the
	// TCP connection (path) it is attached to.
	Stream uint32
	Conn   uint32
	// SRTT / RTTVar are the smoothed round-trip estimates from
	// record-level ACK samples (they measure the full TCPLS path, not
	// just the first TCP hop). Valid only when HasRTT.
	SRTT   time.Duration
	RTTVar time.Duration
	// InFlight is bytes sealed onto this path and not yet acknowledged
	// (tracked only when failover-level acknowledgments are enabled).
	InFlight uint64
	// Losses counts records declared lost on this path (failover
	// replays).
	Losses uint64
	// DeliveryRate is an EWMA of acknowledged bytes per second. Valid
	// only when HasRate.
	DeliveryRate float64
	HasRTT       bool
	HasRate      bool
}

// Scheduler picks the path that carries each coupled record.
// Implementations may keep state: the engine serializes every call
// under the session lock, and one instance must not be shared across
// sessions.
//
// Pick receives the running aggregation-sequence index and one view per
// coupled stream (never empty; the engine reuses the slice after Pick
// returns, so keep a copy of what must outlive the call). It returns
// an index into paths, or PickAll to duplicate the record across every
// path. An out-of-range result falls back to path 0 and is surfaced as
// a sched_invalid trace event — see core.Session.SetPathScheduler.
type Scheduler interface {
	// Name identifies the scheduler in traces and configuration.
	Name() string
	Pick(recordIdx uint64, paths []PathView) int
}

// RoundRobin cycles through the paths by record index — the paper's
// default policy (§5.1) and the seed's legacy behaviour. It ignores
// path metrics entirely.
func RoundRobin() Scheduler { return roundRobin{} }

type roundRobin struct{}

func (roundRobin) Name() string { return "roundrobin" }

func (roundRobin) Pick(recordIdx uint64, paths []PathView) int {
	return int(recordIdx % uint64(len(paths)))
}

// LowestRTT prefers the path with the smallest smoothed RTT — the
// latency-sensitive policy. Paths without an RTT estimate are probed
// with a small fraction of records so their estimates converge; with no
// estimates at all it degrades to round-robin.
func LowestRTT() Scheduler { return &lowestRTT{} }

type lowestRTT struct {
	probe uint64
}

func (l *lowestRTT) Name() string { return "lowrtt" }

func (l *lowestRTT) Pick(recordIdx uint64, paths []PathView) int {
	unknown := -1
	best, bestRTT := -1, time.Duration(0)
	for i := range paths {
		p := &paths[i]
		if !p.HasRTT {
			if unknown < 0 {
				unknown = i
			}
			continue
		}
		if best < 0 || p.SRTT < bestRTT {
			best, bestRTT = i, p.SRTT
		}
	}
	if best < 0 {
		return int(recordIdx % uint64(len(paths))) // nothing measured yet
	}
	if unknown >= 0 {
		// Send every fourth record to an unmeasured path: enough to
		// bootstrap its estimate, cheap if it turns out slow.
		if l.probe++; l.probe%4 == 0 {
			return unknown
		}
	}
	return best
}

// WeightedRate distributes records proportionally to each path's
// delivery rate — the bandwidth-aggregation workhorse that keeps a fast
// path from being capped by a slow one. It is a smooth weighted
// round-robin (deficit credits), so the interleaving stays even rather
// than bursty. Paths without a rate estimate receive the mean known
// rate, which makes the cold start behave like round-robin until
// acknowledgments arrive.
func WeightedRate() Scheduler {
	return &weightedRate{credit: make(map[uint32]float64)}
}

type weightedRate struct {
	credit map[uint32]float64 // smooth-WRR deficit, keyed by conn ID
}

func (w *weightedRate) Name() string { return "rate" }

func (w *weightedRate) Pick(recordIdx uint64, paths []PathView) int {
	var known float64
	var nKnown int
	for i := range paths {
		if p := &paths[i]; p.HasRate && p.DeliveryRate > 0 {
			known += p.DeliveryRate
			nKnown++
		}
	}
	mean := 1.0 // all-unknown: equal weights, i.e. round-robin
	if nKnown > 0 {
		mean = known / float64(nKnown)
	}
	// Smooth WRR: every path earns its weight in credit each round, the
	// richest path carries the record and is charged the round total —
	// long-run shares converge to weight/total with minimal burstiness.
	best := 0
	var total, bestCredit float64
	for i := range paths {
		wt := mean
		if p := &paths[i]; p.HasRate && p.DeliveryRate > 0 {
			wt = p.DeliveryRate
		}
		total += wt
		c := w.credit[paths[i].Conn] + wt
		w.credit[paths[i].Conn] = c
		if i == 0 || c > bestCredit {
			best, bestCredit = i, c
		}
	}
	w.credit[paths[best].Conn] -= total
	return best
}

// Redundant seals every record on every path: failover-sensitive
// traffic pays duplicate bandwidth so the loss or failure of any single
// path never stalls delivery. The receiver's aggregation-sequence
// reordering deduplicates, delivering exactly one copy.
func Redundant() Scheduler { return redundant{} }

type redundant struct{}

func (redundant) Name() string { return "redundant" }

func (redundant) Pick(uint64, []PathView) int { return PickAll }

// ByName resolves a built-in scheduler from its configuration name.
func ByName(name string) (Scheduler, bool) {
	switch name {
	case "roundrobin", "rr":
		return RoundRobin(), true
	case "lowrtt", "lowestrtt":
		return LowestRTT(), true
	case "rate", "weightedrate":
		return WeightedRate(), true
	case "redundant":
		return Redundant(), true
	}
	return nil, false
}
