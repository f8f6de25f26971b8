package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	summary
	Unit string `json:"unit"`
	Note string `json:"note,omitempty"` // a ratio's base, a count's source
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// EarlyRetries counts connect_churn's 0-RTT requests that got no reply
	// within earlyRetryAfter and were sent again over a full handshake.
	// They complete, late, and are not in Failed; see churn.connect.
	EarlyRetries int        `json:"early_reply_retries"`
	SelfTimes    []selfTime `json:"self_times,omitempty"`
	TraceFile    string     `json:"trace_file,omitempty"`
	tracers      []*tracer
}

func (r *result) set(name, unit string, s summary) { r.Metrics[name] = metric{summary: s, Unit: unit} }

func (r *result) setNote(name, unit string, v float64, note string) {
	r.Metrics[name] = metric{summary: single(v), Unit: unit, Note: note}
}

// snapshot is the process's resource use at a slice boundary.
type snapshot struct {
	t         int64 // ns since the instance's epoch
	cpu       float64
	mallocs   uint64
	gcPauseNs uint64
	heapInuse uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// takeSnapshot reads the process CPU time, and in a traced run the heap
// statistics too. ReadMemStats stops the world, so the untraced runs that
// produce the end-to-end metrics leave it out.
func takeSnapshot(epoch time.Time, mem bool) snapshot {
	s := snapshot{t: int64(time.Since(epoch)), cpu: cpuSeconds()}
	if mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.mallocs, s.gcPauseNs, s.heapInuse = m.Mallocs, m.PauseTotalNs, m.HeapInuse
	}
	return s
}

// sampleBoundaries takes a snapshot at the start of the measured window
// and at the end of each slice.
func sampleBoundaries(epoch time.Time, ph *phase, slices int, mem bool) <-chan []snapshot {
	out := make(chan []snapshot, 1)
	go func() {
		snaps := []snapshot{takeSnapshot(epoch, mem)}
		for i := 1; i <= slices; i++ {
			time.Sleep(time.Until(ph.start.Add(time.Duration(i) * ph.slice)))
			snaps = append(snaps, takeSnapshot(epoch, mem))
		}
		out <- snaps
	}()
	return out
}

// runWorkload sets the workload up p.setups times. Every instance is
// warmed up and measured for its share of p.warmup and p.measure, so that
// one run's medians stand on several independent sets of connections,
// goroutines and buffers, not on whichever state a single one settled
// into. setup_s is the median time from the start of a set-up to its
// first measured operation, warm-up included.
func runWorkload(w workload, p params) (*result, error) {
	// No call into the program carries a deadline of its own, so a run
	// that hangs is ended here: every goroutine's stack, then exit.
	limit := time.Duration(p.setups)*10*time.Second + p.warmup + p.measure + 30*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v; goroutines:\n", w.name, limit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res := &result{
		Workload: w.name, Seed: p.seed, Traced: p.trace, Seconds: p.measure.Seconds(),
		Metrics: map[string]metric{},
	}
	// Each instance's share of the run.
	n := time.Duration(p.setups)
	warmup, measure, slicesEach := p.warmup/n, p.measure/n, p.slices/p.setups
	var setupS []float64
	pooled := &slices{}
	var totals tracedTotals
	for i := 0; i < p.setups; i++ {
		t0 := time.Now()
		inst, err := w.start(p, w.variant)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if err := inst.warm(); err != nil {
			inst.finish()
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		now := time.Now()
		inst.run(&phase{start: now, until: now.Add(warmup)})
		l := inst.logs()
		start := time.Now()
		setupS = append(setupS, start.Sub(t0).Seconds())
		ph := &phase{start: start, until: start.Add(measure), slice: measure / time.Duration(slicesEach), trace: p.trace}
		snapsCh := sampleBoundaries(l.epoch, ph, slicesEach, p.trace)
		inst.run(ph)
		snaps := <-snapsCh
		if err := inst.finish(); err != nil {
			return nil, fmt.Errorf("%s: teardown: %w", w.name, err)
		}
		if l.firstErr != nil {
			// A client that stopped early measured only part of the window.
			return nil, fmt.Errorf("%s: %w", w.name, l.firstErr)
		}
		sl, err := cutSlices(l, inst.delivered(), ph, slicesEach)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		sl.failed += l.failedOutsideOps
		res.EarlyRetries += l.earlyRetries
		pooled.add(sl, snaps)
		if p.trace {
			totals.add(l, sl, snaps)
		}
	}
	res.Attempted, res.Failed = pooled.attempted, pooled.failed
	if p.trace {
		perLayerFromRun(res, pooled, &totals)
	} else {
		res.set("setup_s", "s", summarize(setupS))
		endToEnd(res, pooled)
	}
	return res, nil
}

// slices is the measured window cut into equal parts.
type slices struct {
	dur       float64 // seconds per slice
	ops       []int   // operations whose payload reached its reader in the slice
	bytes     []int64
	lat       [][]float64 // µs, per slice, ascending
	cpuPerGB  []float64   // CPU s per GB delivered, per slice
	attempted int
	failed    int
	delivered []delivery // ascending by time, the instance's whole life
}

// add pools another instance's slices with these.
func (sl *slices) add(o *slices, snaps []snapshot) {
	sl.dur = o.dur
	sl.ops = append(sl.ops, o.ops...)
	sl.bytes = append(sl.bytes, o.bytes...)
	sl.lat = append(sl.lat, o.lat...)
	sl.cpuPerGB = append(sl.cpuPerGB, o.cpuBetween(snaps)...)
	sl.attempted += o.attempted
	sl.failed += o.failed
}

// cutSlices sorts an instance's operations, and the payload its reader
// logged (nil: every operation's reply is a delivery), into n slices.
func cutSlices(l *runLogs, delivered []delivery, ph *phase, n int) (*slices, error) {
	sl := &slices{
		dur: ph.slice.Seconds(), ops: make([]int, n), bytes: make([]int64, n), lat: make([][]float64, n),
	}
	t0 := int64(ph.start.Sub(l.epoch))
	index := func(t int64) (int, bool) {
		if t < t0 {
			return 0, false
		}
		i := int((t - t0) / int64(ph.slice))
		return i, i < n
	}
	derive := delivered == nil
	sl.delivered = delivered
	for _, c := range l.clients {
		for _, op := range c.ops {
			if derive && !op.failed {
				sl.delivered = append(sl.delivered, delivery{t: op.end, bytes: op.bytes})
			}
			i, ok := index(op.end)
			if !ok {
				continue
			}
			sl.attempted++
			if op.failed {
				sl.failed++
				continue
			}
			sl.lat[i] = append(sl.lat[i], float64(op.lat)/1e3)
		}
	}
	if sl.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in the measured window")
	}
	if derive {
		sort.Slice(sl.delivered, func(i, j int) bool { return sl.delivered[i].t < sl.delivered[j].t })
	}
	for _, d := range sl.delivered {
		if i, ok := index(d.t); ok {
			sl.ops[i]++
			sl.bytes[i] += int64(d.bytes)
		}
	}
	for i := range sl.lat {
		sort.Float64s(sl.lat[i])
	}
	return sl, nil
}

// bytesBetween is the payload delivered in [a, b).
func (sl *slices) bytesBetween(a, b int64) int64 {
	i := sort.Search(len(sl.delivered), func(i int) bool { return sl.delivered[i].t >= a })
	var n int64
	for ; i < len(sl.delivered) && sl.delivered[i].t < b; i++ {
		n += int64(sl.delivered[i].bytes)
	}
	return n
}

// perSlicePercentile is the median over slices of each slice's own
// percentile; slices with no sample are left out.
func perSlicePercentile(lat [][]float64, p float64) summary {
	var xs []float64
	for _, l := range lat {
		if len(l) > 0 {
			xs = append(xs, percentile(l, p))
		}
	}
	return summarize(xs)
}

func rates(counts []int, dur float64) []float64 {
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c) / dur
	}
	return xs
}

func (sl *slices) goodputMBps() []float64 {
	xs := make([]float64, len(sl.bytes))
	for i, b := range sl.bytes {
		xs[i] = float64(b) / sl.dur / 1e6
	}
	return xs
}

// cpuBetween divides the CPU seconds the whole process (both endpoints)
// used between two snapshots by the payload delivered between them.
func (sl *slices) cpuBetween(snaps []snapshot) []float64 {
	xs := make([]float64, 0, len(snaps)-1)
	for i := 1; i < len(snaps); i++ {
		x := 0.0 // a slice in which nothing was delivered
		if b := sl.bytesBetween(snaps[i-1].t, snaps[i].t); b > 0 {
			x = (snaps[i].cpu - snaps[i-1].cpu) / (float64(b) / 1e9)
		}
		xs = append(xs, x)
	}
	return xs
}

// endToEnd fills in what a user of the stack would see. The metric is
// defined on every workload: an operation is a 1 MiB block delivered, an
// echo, or a connect cycle up to its first echoed byte.
func endToEnd(res *result, sl *slices) {
	res.set("ops_per_s", "1/s", summarize(rates(sl.ops, sl.dur)))
}

// tracedTotals adds up, over a traced run's instances, what the
// per-layer metrics of the run itself are made of.
type tracedTotals struct {
	stats        engineCounts
	rejects      float64
	registryPeak int

	wall, cpu, bytes   float64
	allocs, gcPauseNs  uint64
	peakHeap           uint64
	ops                int
	clients0, clientsN []*tracer // client 0 of each instance; every other client
	sinks              []*tracer
}

func (t *tracedTotals) add(l *runLogs, sl *slices, snaps []snapshot) {
	t.stats.add(l.stats)
	t.rejects += l.rejects
	if l.registryPeak > t.registryPeak {
		t.registryPeak = l.registryPeak
	}
	first, last := snaps[0], snaps[len(snaps)-1]
	t.wall += float64(last.t-first.t) / 1e9
	t.cpu += last.cpu - first.cpu
	t.bytes += float64(sl.bytesBetween(first.t, last.t))
	t.allocs += last.mallocs - first.mallocs
	t.gcPauseNs += last.gcPauseNs - first.gcPauseNs
	for _, s := range snaps {
		if s.heapInuse > t.peakHeap {
			t.peakHeap = s.heapInuse
		}
	}
	for _, n := range sl.ops {
		t.ops += n
	}
	t.clients0 = append(t.clients0, l.clients[0].tr)
	for _, c := range l.clients[1:] {
		t.clientsN = append(t.clientsN, c.tr)
	}
	if l.sinkTracer != nil {
		t.sinks = append(t.sinks, l.sinkTracer)
	}
}

// perLayerFromRun fills in the per-layer metrics that come from the
// traced run itself: engine counts, runtime cost, the benchmark's own
// cost and the span self times. Every instance's odd slices are traced,
// its even ones not.
func perLayerFromRun(res *result, sl *slices, t *tracedTotals) {
	e := t.stats
	mb := float64(e.payload) / 1e6
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	res.setNote("core.records_per_MB", "1/MB", ratio(float64(e.recordsSent), mb), fmt.Sprintf("%d records / %.1f MB written", e.recordsSent, mb))
	res.setNote("core.acks_per_krec", "1/krec", ratio(float64(e.acksReceived), float64(e.recordsSent)/1e3), fmt.Sprintf("%d acks / %d records", e.acksReceived, e.recordsSent))
	res.setNote("core.retransmit_ratio", "ratio", ratio(float64(e.retransmits), float64(e.recordsSent)), fmt.Sprintf("%d retransmits / %d records", e.retransmits, e.recordsSent))
	res.setNote("core.dup_ratio", "ratio", ratio(float64(e.recordsReceived-e.dupDropped), float64(e.recordsReceived)), fmt.Sprintf("%d useful / %d received", e.recordsReceived-e.dupDropped, e.recordsReceived))
	res.setNote("resume.early_reply_retries", "count", float64(res.EarlyRetries), "0-RTT requests sent again over a full handshake after 100 ms without a reply")
	res.setNote("server.rejects", "count", t.rejects, "tcpls_server_rejected_total")
	res.setNote("server.registry_len_peak", "count", float64(t.registryPeak), "Registry.Len")

	allocs := float64(t.allocs)
	res.setNote("runtime.allocs_per_MB", "1/MB", ratio(allocs, t.bytes/1e6), fmt.Sprintf("%.0f allocs / %.1f MB", allocs, t.bytes/1e6))
	res.setNote("runtime.allocs_per_op", "1/op", ratio(allocs, float64(t.ops)), fmt.Sprintf("%.0f allocs / %d ops", allocs, t.ops))
	res.setNote("runtime.gc_pause_ms", "ms", float64(t.gcPauseNs)/1e6, "PauseTotalNs over the measured windows")
	res.setNote("runtime.peak_heap_MB", "MB", float64(t.peakHeap)/1e6, "max HeapInuse at slice boundaries")
	res.setNote("runtime.cpu_util", "ratio", ratio(t.cpu, t.wall*2), fmt.Sprintf("%.2f CPU s / %.2f s wall / 2", t.cpu, t.wall))

	// The untraced slices also give the cost and latency metrics that
	// could not hold a bound as end-to-end metrics (README.md, Demoted).
	var traced, plain, plainMBps, plainCPU []float64
	var plainLat [][]float64
	mbps := sl.goodputMBps()
	for i, r := range rates(sl.ops, sl.dur) {
		if i%2 == 1 {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
			plainMBps = append(plainMBps, mbps[i])
			plainLat = append(plainLat, sl.lat[i])
			plainCPU = append(plainCPU, sl.cpuPerGB[i])
		}
	}
	res.set("goodput_MBps", "MB/s", summarize(plainMBps))
	res.set("cpu_s_per_GB", "s/GB", summarize(plainCPU))
	res.set("rtt_p50_us", "us", perSlicePercentile(plainLat, 0.50))
	res.set("rtt_p99_us", "us", perSlicePercentile(plainLat, 0.99))
	res.setNote("bench.trace_overhead_ratio", "ratio", ratio(median(traced), median(plain)), fmt.Sprintf("%.1f ops/s traced / %.1f ops/s untraced", median(traced), median(plain)))

	// Self times come from client 0 of every instance; verification on
	// the bulk workloads happens in the sink, against its own wall time.
	rows, coverage := selfTimes(t.clients0)
	res.SelfTimes = rows
	res.tracers = append(append(append(res.tracers, t.clients0...), t.clientsN...), t.sinks...)
	verify := shareOf(rows, "verify")
	if len(t.sinks) > 0 {
		srows, _ := selfTimes(t.sinks)
		verify = shareOf(srows, "verify")
	}
	res.setNote("bench.verify_share", "ratio", verify, "verify spans / traced wall time of their goroutine")
	res.setNote("trace.coverage", "ratio", coverage, "span self times / traced wall time of client 0")
	for _, name := range []string{"dial", "open_stream", "write", "read", "close"} {
		res.setNote("trace.self_"+name+"_us", "us", meanSelfUS(rows, name), "mean self time per call, client 0; 0: never called")
	}
}
