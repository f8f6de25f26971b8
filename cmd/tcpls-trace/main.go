// Command tcpls-trace analyzes TCPLS qlog traces: live TraceJSON
// output, flight-recorder dumps and fleet artifacts.
//
// Usage:
//
//	tcpls-trace trace.qlog              # human-readable summary
//	tcpls-trace -json trace.qlog        # full report as JSON
//	tcpls-trace -series trace.qlog      # per-path goodput/RTT timeseries
//	tcpls-trace -check -max-gap 500ms < trace.qlog
//
// It reconstructs per-path goodput and RTT timeseries, failover gap
// durations (conn_failed to the first record on a surviving path),
// record-lifecycle span percentiles, and reorder-depth percentiles.
// With -check it exits 1 when the trace is malformed or violates
// invariants (negative timestamps, inverted span legs, unclosed or
// over-budget failover gaps) — the chaos-test assertion mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tcpls/internal/qlog"
)

var (
	jsonFlag     = flag.Bool("json", false, "emit the full report as JSON")
	seriesFlag   = flag.Bool("series", false, "print per-path goodput and RTT timeseries")
	healthFlag   = flag.Bool("health", false, "print the continuous-diagnosis verdict timeline")
	checkFlag    = flag.Bool("check", false, "exit 1 on malformed input or invariant violations")
	intervalFlag = flag.Duration("interval", 100*time.Millisecond, "timeseries bucket width")
	maxGapFlag   = flag.Duration("max-gap", 0, "with -check: fail if any failover gap exceeds this")
)

func main() {
	flag.Parse()
	var in io.Reader = os.Stdin
	name := "<stdin>"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}

	events, perr := qlog.Parse(in)
	rep := qlog.Analyze(events, qlog.Options{Interval: *intervalFlag, MaxGap: *maxGapFlag})
	if perr != nil {
		rep.Violations = append(rep.Violations, perr.Error())
	}

	switch {
	case *jsonFlag:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	case *seriesFlag:
		printSeries(rep)
	case *healthFlag:
		printHealth(name, rep)
	default:
		printSummary(name, rep)
	}

	if *checkFlag && len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "tcpls-trace: %d violation(s):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	if perr != nil && !*checkFlag {
		fatal(perr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcpls-trace:", err)
	os.Exit(1)
}

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

func printSummary(name string, rep *qlog.Report) {
	fmt.Printf("%s: %d events", name, rep.Events)
	if rep.EndUS > rep.StartUS {
		fmt.Printf(" over %v", us(rep.EndUS-rep.StartUS).Round(time.Millisecond))
	}
	fmt.Println()

	if len(rep.Paths) > 0 {
		fmt.Println("\nper-path records:")
		fmt.Println("  conn     sent  (data/ctl/retx)     recv  (dup)    acks s/r       bytes s/r")
		for _, p := range rep.Paths {
			fmt.Printf("  %4d %8d  (%d/%d/%d) %12d  (%d) %6d/%-6d %9d/%d\n",
				p.Conn, p.RecordsSent, p.DataSent, p.CtlSent, p.Retransmits,
				p.RecordsRecv, p.DupDropped, p.AcksSent, p.AcksReceived,
				p.BytesSent, p.BytesReceived)
		}
	}

	if len(rep.Failovers) > 0 {
		fmt.Println("\nfailover gaps:")
		for _, g := range rep.Failovers {
			if g.Closed {
				fmt.Printf("  conn %d -> conn %d: %v (%d retransmits)\n",
					g.FailedConn, g.TargetConn,
					us(g.DurationUS).Round(time.Microsecond), g.Retransmits)
			} else {
				fmt.Printf("  conn %d: UNCLOSED (failed at %dus, no traffic on another path)\n",
					g.FailedConn, g.StartUS)
			}
		}
	}

	r := rep.Resumption
	if r.TicketsIssued+r.TicketsReceived+r.ResumeAccepted+r.ResumeRejected+
		r.EarlyAccepted+r.EarlyRejected+r.JoinFastpath+len(r.JoinGaps) > 0 {
		fmt.Println("\nresumption:")
		if r.TicketsIssued+r.TicketsReceived+r.TicketsReissued > 0 {
			fmt.Printf("  tickets: issued %d  received %d  reissued %d\n",
				r.TicketsIssued, r.TicketsReceived, r.TicketsReissued)
		}
		if r.ResumeAccepted+r.ResumeRejected > 0 {
			fmt.Printf("  resume: accepted %d  rejected %d  (rate %.0f%%)\n",
				r.ResumeAccepted, r.ResumeRejected, r.ResumptionRate*100)
		}
		if r.EarlyAccepted+r.EarlyRejected > 0 {
			fmt.Printf("  0-rtt: accepted %d (%d bytes)  rejected %d\n",
				r.EarlyAccepted, r.EarlyBytes, r.EarlyRejected)
		}
		if len(r.JoinGaps) > 0 {
			fmt.Printf("  join gaps (%d fastpath):\n", r.JoinFastpath)
			for _, g := range r.JoinGaps {
				kind := "two-flight"
				if g.Fastpath {
					kind = "fastpath"
				}
				if g.Closed {
					fmt.Printf("    conn %d (%s): %v to first record\n",
						g.Conn, kind, us(g.DurationUS).Round(time.Microsecond))
				} else {
					fmt.Printf("    conn %d (%s): no record after join\n", g.Conn, kind)
				}
			}
		}
	}

	if rep.Spans.Count > 0 {
		fmt.Printf("\nrecord spans: %d (%d retransmitted)\n", rep.Spans.Count, rep.Spans.RetxSpans)
		fmt.Printf("  queue  (enq->seal):  p50 %-10v p99 %v\n", us(rep.Spans.QueueP50US), us(rep.Spans.QueueP99US))
		fmt.Printf("  wire   (write->ack): p50 %-10v p99 %v\n", us(rep.Spans.WireP50US), us(rep.Spans.WireP99US))
		fmt.Printf("  total  (enq->ack):   p50 %-10v p99 %-10v max %v\n",
			us(rep.Spans.TotalP50US), us(rep.Spans.TotalP99US), us(rep.Spans.TotalMaxUS))
	}

	if rep.Reorder.Samples > 0 {
		fmt.Printf("\nreorder depth (%d samples): p50 %d  p90 %d  p99 %d  max %d\n",
			rep.Reorder.Samples, rep.Reorder.P50, rep.Reorder.P90, rep.Reorder.P99, rep.Reorder.Max)
	}

	if rep.Health.Events > 0 {
		fmt.Printf("\nhealth: %d verdict transition(s)", rep.Health.Events)
		if len(rep.Health.Open) > 0 {
			fmt.Printf(", open at trace end: %v", rep.Health.Open)
		}
		fmt.Println("  (use -health for the timeline)")
	}

	if len(rep.Violations) > 0 {
		fmt.Printf("\nviolations (%d):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
}

// printHealth renders the continuous-diagnosis verdict timeline: one
// line per transition, relative to trace start, with the evidence
// scalar the monitor attached.
func printHealth(name string, rep *qlog.Report) {
	h := rep.Health
	fmt.Printf("%s: %d health verdict transition(s)\n", name, h.Events)
	if h.Events == 0 {
		return
	}
	fmt.Println("\nverdict timeline:")
	for _, mk := range h.Timeline {
		t := us(mk.TimeUS - rep.StartUS).Round(time.Millisecond)
		state := "cleared"
		if mk.Raised {
			state = "RAISED"
		}
		if mk.Kind == "healthy" {
			fmt.Printf("  %10v  healthy (all verdicts cleared)\n", t)
			continue
		}
		fmt.Printf("  %10v  %-7s %s", t, state, mk.Kind)
		if mk.Conn != 0 {
			fmt.Printf("  conn %d", mk.Conn)
		}
		if mk.Value != 0 {
			fmt.Printf("  value %d", mk.Value)
		}
		fmt.Println()
	}
	if len(h.Open) > 0 {
		fmt.Printf("\nopen at trace end: %v\n", h.Open)
	} else {
		fmt.Println("\nall verdicts cleared by trace end")
	}
}

// printSeries dumps gnuplot-friendly columns: one block per path per
// series, blank-line separated.
func printSeries(rep *qlog.Report) {
	for _, ps := range rep.Goodput {
		fmt.Printf("# goodput conn %d (time_s bytes_per_s)\n", ps.Conn)
		for _, b := range ps.Buckets {
			fmt.Printf("%.3f %.0f\n", float64(b.StartUS-rep.StartUS)/1e6, b.Value)
		}
		fmt.Println()
	}
	for _, ps := range rep.RTT {
		fmt.Printf("# rtt conn %d (time_s rtt_us)\n", ps.Conn)
		for _, b := range ps.Buckets {
			fmt.Printf("%.3f %.0f\n", float64(b.StartUS-rep.StartUS)/1e6, b.Value)
		}
		fmt.Println()
	}
}
