// Command bench is the repository's one benchmark: four closed-loop
// workloads over loopback TCP through the public tcpls and
// internal/server surface, a per-layer ladder probe, and a traced run.
// BENCHMARK.json at the repository root names its workloads and metrics;
// README.md in this directory explains them.
//
//	bash bench/run.sh                      every workload, then every traced run with the ladder
//	bash bench/run.sh -repeat 2            two sets, compared against BENCHMARK.json's bounds
//	bash bench/run.sh -workload rpc_small  one run; the last line is its result as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"
)

// Every run is cut into this many slices, each measured on a set-up of
// its own, after a timed warm-up of runWarmup shared out among them.
const (
	runSlices = 10
	runSetups = 10
	runWarmup = 3 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	outDir   string
	specPath string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as one JSON object on the last line; empty: run the whole suite")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of payload bytes, message sizes and the handshake-kind order")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds per run (a traced run spends half on the workload and half on the ladder probe)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run and ladder probe, printing the per-layer metrics; 0: the end-to-end metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "suite only: run this many sets and compare them against the bounds in BENCHMARK.json")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for result.json and trace-<workload>.jsonl")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark's declaration, read for -repeat's bounds")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Two processors, whatever the host has: the reference runner has
	// two, and no workload uses more than two client goroutines.
	runtime.GOMAXPROCS(2)
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(w, "tcpls bench: loopback TCP on one host (not a link: no link rate is claimed), one process holds client and server, GOMAXPROCS=%d, nproc=%d, %s, commit %s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	if o.workload != "" {
		return runOne(o, w)
	}
	return runSuite(o, w)
}

func (o options) params(trace bool) params {
	p := params{
		seed: o.seed, measure: time.Duration(o.seconds * float64(time.Second)), warmup: runWarmup,
		slices: runSlices, setups: runSetups,
	}
	if trace {
		// Half the time, half the instances: two slices each, the
		// second one traced.
		p.trace, p.setups, p.measure = true, runSetups/2, p.measure/2
	}
	return p
}

// runOne is what the benchmark's driver calls: one workload, one mode,
// the result as a JSON object on the last line.
func runOne(o options, w io.Writer) error {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var res *result
	var err error
	if o.trace == 1 {
		res, err = runTraced(wl, o, w)
	} else {
		res, err = runWorkload(wl, o.params(false))
	}
	if err != nil {
		return err
	}
	printResult(w, wl, res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
			return fmt.Errorf("%s: metric %s has no value (%v)", wl.name, name, m.Median)
		}
		line.Metrics[name] = value{m.Median, m.Unit}
	}
	if err := writeResultFile(o, []*result{res}); err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runTraced drives the workload with spans on in every other slice,
// writes the span file, and adds the ladder probe's metrics, so that one
// result holds every per-layer metric.
func runTraced(wl workload, o options, w io.Writer) (*result, error) {
	res, err := runWorkload(wl, o.params(true))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, "trace-"+wl.name+".jsonl")
	written, dropped, err := writeSpans(path, res.tracers)
	if err != nil {
		return nil, err
	}
	res.TraceFile = path
	fmt.Fprintf(w, "%s: %d spans written to %s (%d more counted in the self times only)\n", wl.name, written, path, dropped)
	ld, err := runLadder(o.seed, o.params(true).measure)
	if err != nil {
		return nil, err
	}
	for name, m := range ld.Metrics {
		res.Metrics[name] = m
	}
	return res, nil
}

// runSuite runs every workload untraced (o.repeat sets of them), then
// traced. Each run is a process of its own, as the driver's are: what
// one workload leaves behind in a process (heap, registered metrics)
// would otherwise slow the next one down, by up to 30 % for bulk_1s after
// connect_churn.
func runSuite(o options, w io.Writer) error {
	var all []*result
	sets := make([]map[string]*result, o.repeat)
	for s := range sets {
		sets[s] = map[string]*result{}
		for _, wl := range workloads {
			if o.repeat > 1 {
				fmt.Fprintf(w, "\nset %d of %d\n", s+1, o.repeat)
			}
			res, err := runChild(o, w, wl.name, 0)
			if err != nil {
				return err
			}
			sets[s][wl.name] = res
			all = append(all, res)
		}
	}
	for _, wl := range workloads {
		res, err := runChild(o, w, wl.name, 1)
		if err != nil {
			return err
		}
		all = append(all, res)
	}
	if err := writeResultFile(o, all); err != nil {
		return err
	}
	failed := 0
	for _, r := range all {
		failed += r.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if o.repeat > 1 {
		return compareSets(o, w, sets)
	}
	return nil
}

// runChild runs one workload in a process of its own, waits for it and
// reads back the result file it wrote.
func runChild(o options, w io.Writer, workload string, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-out", o.outDir)
	cmd.Stdout, cmd.Stderr = w, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	b, err := os.ReadFile(filepath.Join(o.outDir, "result.json"))
	if err != nil {
		return nil, err
	}
	var doc resultFile
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	if len(doc.Results) != 1 {
		return nil, fmt.Errorf("%s: result file holds %d results, want 1", workload, len(doc.Results))
	}
	return doc.Results[0], nil
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints, for every end-to-end metric on every workload, the
// median of the first and of the last set, how much worse the last is,
// and whether that stays within the metric's bound.
func compareSets(o options, w io.Writer, sets []map[string]*result) error {
	sp, err := readSpec(o.specPath)
	if err != nil {
		return err
	}
	first, last := sets[0], sets[len(sets)-1]
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "\nworkload\tmetric\tset 1\tset %d\tworse by\tbound\t\n", len(sets))
	fails := 0
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			a, b := first[wl.name].Metrics[m.Name].Median, last[wl.name].Metrics[m.Name].Median
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "PASS"
			if worse > m.Bound || math.IsNaN(worse) {
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n", wl.name, m.Name, a, b, worse*100, m.Bound*100, verdict)
		}
	}
	tw.Flush()
	if fails > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound between two sets of the same code", fails)
	}
	return nil
}

func printResult(w io.Writer, wl workload, r *result) {
	mode := "end-to-end, tracing off"
	if r.Traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "\n== %s: %s; seed %d, %.4g s measured; %s; %d operations, %d failed\n",
		r.Workload, mode, r.Seed, r.Seconds, wl.clients, r.Attempted, r.Failed)
	if r.EarlyRetries > 0 {
		fmt.Fprintf(w, "%d 0-RTT requests got no reply within %v and were sent again over a full handshake (README.md, Defects)\n", r.EarlyRetries, earlyRetryAfter)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmedian\tunit\tslice IQR\tn\tbase\t")
	for _, name := range names {
		m := r.Metrics[name]
		iqr := "-"
		if m.N > 1 {
			iqr = fmt.Sprintf("%.4g", m.IQR)
		}
		fmt.Fprintf(tw, "%s\t%.5g\t%s\t%s\t%d\t%s\t\n", name, m.Median, m.Unit, iqr, m.N, m.Note)
	}
	tw.Flush()
	if len(r.SelfTimes) > 0 {
		fmt.Fprintln(w, "span self times, client 0 (duration minus children):")
		tw = tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "  span\tcalls\tself ms\tshare of traced wall\t")
		for _, s := range r.SelfTimes {
			fmt.Fprintf(tw, "  %s\t%d\t%.2f\t%.1f%%\t\n", s.Name, s.Count, s.SelfMS, s.Share*100)
		}
		tw.Flush()
	}
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// resultFile is bench/out/result.json: every metric of the invocation,
// machine readable, beside the tables printed above.
type resultFile struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Transport  string    `json:"transport"`
	Seed       uint64    `json:"seed"`
	Results    []*result `json:"results"`
}

func writeResultFile(o options, results []*result) error {
	doc := resultFile{commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), "loopback TCP, one process per run", o.seed, results}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "result.json"), append(b, '\n'), 0o644)
}
