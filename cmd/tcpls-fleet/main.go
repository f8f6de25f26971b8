// Command tcpls-fleet runs one seed-reproducible chaos campaign: a
// fleet of TCPLS sessions driven through a randomized fault schedule
// over the discrete-event simulator, with the four fleet invariants
// (byte-exactness, bounded memory, zero goroutine leaks, telemetry
// count-closure) checked at the end.
//
//	tcpls-fleet -seed 42 -sessions 1000
//	tcpls-fleet -seed 42 -sessions 1000 -qlog out/   # drop artifacts on failure
//
// On a green campaign it prints the fingerprint and exits 0. On a
// failing campaign it prints every violation, the one-line `go test`
// repro, a ddmin-shrunk minimal fault schedule as JSON lines (the file
// format internal/fault parses, which tcpls-netem replays against real
// sockets), optionally writes the
// implicated session's qlog trace (analyzable with `tcpls-trace
// -check`), and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tcpls/internal/fleet"
	"tcpls/internal/sim"
)

var (
	seedFlag     = flag.Int64("seed", 1, "campaign seed (determines workload and fault schedule)")
	sessionsFlag = flag.Int("sessions", 1000, "fleet size")
	faultsFlag   = flag.Int("faults", 0, "fault events to schedule (0 = sessions/8, min 8)")
	durationFlag = flag.Duration("duration", 0, "fault-injection window in virtual time (0 = 900ms)")
	pathsFlag    = flag.Int("paths", 0, "paths per session (0 = 2)")
	racksFlag    = flag.Int("racks", 0, "correlated failure domains (0 = 8)")
	transferFlag = flag.Int("transfer", 0, "per-session transfer bytes (0 = 64 KiB)")
	injectFlag   = flag.Bool("inject-reorder-bug", false, "disable the buffer caps (the harness self-test: the campaign must fail)")
	qlogFlag     = flag.String("qlog", "", "directory for failure qlog artifacts (empty = none)")
	shrinkFlag   = flag.Bool("shrink", true, "on failure, ddmin-shrink the fault schedule")
)

func main() {
	flag.Parse()
	sc := fleet.Scenario{
		Seed:             *seedFlag,
		Sessions:         *sessionsFlag,
		Faults:           *faultsFlag,
		Duration:         sim.Time(*durationFlag),
		PathsPerSession:  *pathsFlag,
		Racks:            *racksFlag,
		TransferBytes:    *transferFlag,
		InjectReorderBug: *injectFlag,
	}

	start := time.Now()
	res := fleet.Run(sc)
	wall := time.Since(start).Round(time.Millisecond)

	fmt.Printf("campaign: seed=%d sessions=%d faults=%d virtual=%v wall=%v quiesced=%v\n",
		res.Scenario.Seed, res.Scenario.Sessions, len(res.Scenario.Schedule),
		res.EndVirtual, wall, res.Quiesced)
	fmt.Printf("fingerprint: %s\n", res.Fingerprint())

	if !res.Failed() {
		fmt.Println("all invariants hold")
		return
	}

	fmt.Printf("%d violations:\n", len(res.Violations))
	for i, v := range res.Violations {
		if i >= 20 {
			fmt.Printf("  ... and %d more\n", len(res.Violations)-i)
			break
		}
		fmt.Printf("  %s\n", v)
	}
	fmt.Printf("repro: %s\n", res.ReproLine())

	if *qlogFlag != "" {
		if path, err := writeArtifact(res, *qlogFlag); err != nil {
			fmt.Fprintf(os.Stderr, "qlog artifact: %v\n", err)
		} else {
			fmt.Printf("qlog artifact: %s (analyze with: tcpls-trace -check %s)\n", path, path)
		}
	}

	if *shrinkFlag {
		min, _, trials := fleet.Shrink(sc)
		fmt.Printf("shrunk to %d fault events in %d trials:\n", len(min.Schedule), trials)
		text, err := min.Schedule.Marshal()
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrunk schedule: %v\n", err)
		}
		os.Stdout.Write(text)
	}
	os.Exit(1)
}

// writeArtifact re-runs the campaign with tracing armed on the first
// implicated session and writes its qlog trace under dir.
func writeArtifact(res *fleet.Result, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	target := res.Violations[0].Session
	if target < 0 {
		target = 0
	}
	path := filepath.Join(dir, fmt.Sprintf("fleet-seed%d-session%d.qlog", res.Scenario.Seed, target))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := fleet.RunTraced(res.Scenario, target, f); err != nil {
		return "", err
	}
	return path, nil
}
