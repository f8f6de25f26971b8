// Package telemetry is the production-observability layer: a lock-free
// metrics registry (atomic counters, gauges, and fixed-bucket
// histograms) with Prometheus text-format exposition, a bounded
// ring-buffer trace sink that turns the engine's QLOG-style events into
// JSON lines without ever blocking the protocol path, and an HTTP
// server wiring /metrics together with net/http/pprof.
//
// The package is deliberately dependency-free (internal/core imports it,
// not the other way around). Process-level updates are single atomic
// operations on handles held by the caller. A session keeps no handles:
// its engine counts under its own lock, and its one registry entry
// (SessionMetrics) reads that count as a Snapshot when somebody scrapes,
// which is also when label strings are built.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is safe to update (no-op), so callers
// can keep telemetry optional with a single nil-check — or none at all.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a programming error; they wrap).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Like Counter, nil receivers
// are safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic bucket counts and a
// CAS-maintained float64 sum — Observe is lock-free and allocation-free.
// Bucket bounds are upper bounds in ascending order; an implicit +Inf
// bucket catches the tail. nil receivers are safe no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, cumulative at exposition time
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// newHistogram builds a standalone histogram (registry-less use, e.g.
// tests). bounds must be ascending.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤16) and the branch
	// predictor eats this; a binary search buys nothing at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Default histogram bucket sets for the TCPLS metric families.
var (
	// RTTBuckets spans 100µs..10s in roughly 3x steps (seconds).
	RTTBuckets = []float64{0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}
	// SizeBuckets spans 64B..the 16 KiB TLS record ceiling (bytes).
	SizeBuckets = []float64{64, 256, 1024, 4096, 8192, 16384}
)
