package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates family types in the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// family is one named metric with a fixed label schema. Its series are
// its permanent labelled children (With: the bounded process-level label
// sets) plus what the attached sessions show. Child resolution takes the
// family lock; the handles are updated lock-free afterwards.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histograms only

	// perSession: attached sessions may show series of this family, so
	// SumValues must walk them.
	perSession atomic.Bool

	mu       sync.Mutex
	order    []string // child keys in first-seen order, for stable exposition
	children map[string]any
}

// sample is one series at exposition time: its label values (in schema
// order) and the *Counter, *Gauge or *Histogram behind it, or the value
// a session's Snapshot gave it (a uint64 counter, an int64 gauge or a
// *Hist).
type sample struct {
	f      *family
	values []string
	metric any
}

// labelKey joins label values into the child map key. Values are joined
// with \xff, which cannot appear in a valid label value.
func labelKey(values []string) string {
	return strings.Join(values, "\xff")
}

// child returns (creating if needed) the child for the given label
// values; mk builds a fresh metric value.
func (f *family) child(values []string, mk func() any) any {
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Family registration is idempotent: asking for an
// already-registered name with the same kind and label schema returns
// the existing family, so several listeners can share one registry.
//
// Lifetime rule: a session is ONE entry here, its SessionMetrics,
// attached at set-up and detached at close. Its series are on /metrics
// exactly while it is live and the registry keeps nothing of a closed
// one; the counts stay with the session's engine, so Session.Snapshot
// still reads.
//
// Lock order: a session takes r.mu under its own lock (Detach at
// close), and an entry's fill takes the session's lock. A read
// therefore collects the entries under r.mu, releases it, and only
// then fills them.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family

	sessions  map[*SessionMetrics]struct{} // the attached sessions
	attachSeq uint64

	tcplsOnce sync.Once
	tcpls     *Families
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:   make(map[string]*family),
		sessions: make(map[*SessionMetrics]struct{}),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that sessions aggregate into
// unless configured otherwise.
func Default() *Registry { return defaultRegistry }

// register resolves or creates a family, enforcing schema consistency.
func (r *Registry) register(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: %s re-registered with labels %v, was %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]any),
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or resolves) a counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values (one per label, in
// schema order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or resolves) a gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a labelled histogram family with shared bucket bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers (or resolves) a histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.child(values, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// labelEscaper escapes a label value per the Prometheus text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// formatLabels renders {k="v",...}.
func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		if i < len(values) {
			labelEscaper.WriteString(&b, values[i])
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series lists every family in registration order with its series:
// the permanent children in first-seen order, then what the attached
// sessions show, in the order they attached — stable output that
// diffing and tests can rely on. Each session is filled once, after
// r.mu is released.
func (r *Registry) series() (fams []*family, of map[*family][]sample) {
	r.mu.Lock()
	fams = append(fams, r.fams...)
	entries := make([]*SessionMetrics, 0, len(r.sessions))
	for sm := range r.sessions {
		entries = append(entries, sm)
	}
	r.mu.Unlock()
	of = make(map[*family][]sample, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		for _, key := range f.order {
			var values []string
			if key != "" {
				values = strings.Split(key, "\xff")
			}
			of[f] = append(of[f], sample{f, values, f.children[key]})
		}
		f.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	var shown []sample
	for _, sm := range entries {
		shown = sm.appendSamples(shown[:0])
		for _, s := range shown {
			of[s.f] = append(of[s.f], s)
		}
	}
	return fams, of
}

// WritePrometheus renders every family that has series in text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fams, of := r.series()
	for _, f := range fams {
		if len(of[f]) > 0 {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		}
		bucketLabels := append(slices.Clip(f.labels), "le")
		for _, s := range of[f] {
			labels := formatLabels(f.labels, s.values)
			buckets := func(count func(i int) uint64, sum float64) {
				var cum uint64
				for bi := 0; bi <= len(f.bounds); bi++ {
					cum += count(bi)
					le := "+Inf"
					if bi < len(f.bounds) {
						le = formatFloat(f.bounds[bi])
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, formatLabels(bucketLabels, append(slices.Clip(s.values), le)), cum)
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n%s_count%s %d\n", f.name, labels, formatFloat(sum), f.name, labels, cum)
			}
			switch c := s.metric.(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labels, c.Load())
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labels, c.Load())
			case uint64, int64:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labels, c)
			case *Histogram:
				buckets(func(i int) uint64 { return c.counts[i].Load() }, c.Sum())
			case *Hist:
				buckets(func(i int) uint64 { return c.Counts[i] }, c.Sum)
			}
		}
	}
	return bw.Flush()
}

// Gather returns a flat snapshot of every counter and gauge series as
// name{labels} -> value, for tests and leak checks. Histograms
// contribute name_count and name_sum entries.
func (r *Registry) Gather() map[string]float64 {
	out := make(map[string]float64)
	fams, of := r.series()
	for _, f := range fams {
		for _, s := range of[f] {
			id := f.name + formatLabels(f.labels, s.values)
			switch h := s.metric.(type) {
			case *Histogram:
				out[id+"_count"] = float64(h.Count())
				id += "_sum"
			case *Hist:
				out[id+"_count"] = float64(h.Count())
				id += "_sum"
			}
			out[id] = s.value()
		}
	}
	return out
}

// value is the current value of a counter or gauge, and the observation
// sum of a histogram.
func (s sample) value() float64 {
	switch c := s.metric.(type) {
	case *Counter:
		return float64(c.Load())
	case *Gauge:
		return float64(c.Load())
	case *Histogram:
		return c.Sum()
	case uint64:
		return float64(c)
	case int64:
		return float64(c)
	case *Hist:
		return c.Sum
	}
	return 0
}

// SumValues sums value() over every series of the named family. ok is
// false for an unregistered name. Allocation-free for a family no
// session shows — the health sampler calls this each tick for
// the process-level families (resumption acceptance, admission rejects,
// rotate failures).
func (r *Registry) SumValues(name string) (sum float64, ok bool) {
	r.mu.Lock()
	f := r.byName[name]
	r.mu.Unlock()
	if f == nil {
		return 0, false
	}
	if f.perSession.Load() {
		_, of := r.series()
		for _, s := range of[f] {
			sum += s.value()
		}
		return sum, true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, child := range f.children {
		sum += sample{metric: child}.value()
	}
	return sum, true
}
