package fleet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"tcpls/internal/fault"
	"tcpls/internal/qlog"
)

// Campaign knobs. -fleet.seed reruns one exact campaign — the repro
// line a failing run prints. TCPLS_FLEET_SESSIONS / TCPLS_FLEET_SEEDS
// scale CI runs without editing code; TCPLS_FLEET_QLOG_DIR keeps
// failure artifacts somewhere the CI job can upload from.
var (
	fleetSeed     = flag.Int64("fleet.seed", 0, "run the fleet campaign with exactly this seed")
	fleetSessions = flag.Int("fleet.sessions", 0, "override the fleet campaign session count")
)

func campaignSessions(t *testing.T) int {
	if *fleetSessions > 0 {
		return *fleetSessions
	}
	if v := os.Getenv("TCPLS_FLEET_SESSIONS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad TCPLS_FLEET_SESSIONS %q: %v", v, err)
		}
		return n
	}
	return 1000
}

func campaignSeeds(t *testing.T) []int64 {
	if *fleetSeed != 0 {
		return []int64{*fleetSeed}
	}
	if v := os.Getenv("TCPLS_FLEET_SEEDS"); v != "" {
		var seeds []int64
		for _, f := range strings.Split(v, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("bad TCPLS_FLEET_SEEDS %q: %v", v, err)
			}
			seeds = append(seeds, n)
		}
		return seeds
	}
	return []int64{1}
}

// artifactDir is where failing campaigns drop their qlog traces.
func artifactDir(t *testing.T) string {
	if d := os.Getenv("TCPLS_FLEET_QLOG_DIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatalf("artifact dir: %v", err)
		}
		return d
	}
	return t.TempDir()
}

// TestFleetCampaign is the headline invariant run: a full fleet under
// the default fault mix, all six invariants checked. On failure it
// emits the one-line repro, writes the implicated session's qlog
// artifact, and verifies the artifact is analyzable.
func TestFleetCampaign(t *testing.T) {
	sessions := campaignSessions(t)
	for _, seed := range campaignSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := Scenario{Seed: seed, Sessions: sessions}
			res := Run(sc)
			redials, recoveries := supervisorTotals(res)
			t.Logf("seed %d: %d sessions, %d faults, virtual end %v, quiesced=%v, supervisor %d redial rounds / %d recoveries, fingerprint %s",
				seed, sessions, len(res.Scenario.Schedule), res.EndVirtual, res.Quiesced, redials, recoveries, res.Fingerprint())
			t.Logf("seed %d: acceptor %+v, resume %+v", seed, res.Accept, res.Resume)
			if !res.Failed() {
				return
			}
			for i, v := range res.Violations {
				if i >= 20 {
					t.Errorf("... and %d more violations", len(res.Violations)-i)
					break
				}
				t.Errorf("%s", v)
			}
			t.Errorf("repro: %s", res.ReproLine())

			// Leave a qlog artifact behind for the implicated session.
			target := res.Violations[0].Session
			if target < 0 {
				target = 0
			}
			path := filepath.Join(artifactDir(t), fmt.Sprintf("fleet-seed%d-session%d.qlog", seed, target))
			f, err := os.Create(path)
			if err != nil {
				t.Fatalf("create artifact: %v", err)
			}
			defer f.Close()
			if _, err := RunTraced(sc, target, f); err != nil {
				t.Fatalf("write artifact: %v", err)
			}
			t.Errorf("qlog artifact: %s (analyze with: go run ./cmd/tcpls-trace -check %s)", path, path)
		})
	}
}

// supervisorTotals sums the client supervisors' redial rounds and
// recoveries over the fleet.
func supervisorTotals(res *Result) (redials, recoveries int) {
	for _, sr := range res.Sessions {
		redials += sr.Redials
		recoveries += sr.Recoveries
	}
	return redials, recoveries
}

// TestFleetRunsReconnectSupervisor: whole-session outages (rack
// outages, server restarts) are recovered by the production reconnect
// supervisor of internal/driver, and every invariant holds across it.
func TestFleetRunsReconnectSupervisor(t *testing.T) {
	res := Run(Scenario{Seed: 1, Sessions: 100, FaultMix: fault.Mix{RackOutage: 1, Restart: 1}})
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	redials, recoveries := supervisorTotals(res)
	if redials == 0 || recoveries == 0 {
		t.Fatalf("supervisor ran %d redial rounds and %d recoveries, want both above zero", redials, recoveries)
	}
}

// TestFleetSeedReproducible runs the same scenario twice and demands
// bit-identical fault schedules and invariant metrics — the determinism
// contract every repro line depends on.
func TestFleetSeedReproducible(t *testing.T) {
	sc := Scenario{Seed: 7, Sessions: 120}
	a := Run(sc)
	b := Run(sc)
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("same scenario, different campaigns: %s vs %s", fa, fb)
	}
	if len(a.Scenario.Schedule) == 0 {
		t.Fatal("no faults generated")
	}
	for i := range a.Scenario.Schedule {
		if a.Scenario.Schedule[i] != b.Scenario.Schedule[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a.Scenario.Schedule[i], b.Scenario.Schedule[i])
		}
	}
	// Different seed must actually change the campaign.
	c := Run(Scenario{Seed: 8, Sessions: 120})
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different seeds produced identical campaigns")
	}
}

// TestFleetCoupledDefaultCaps: the campaign's coupled and plain sessions
// at the engine's default send window and reorder limit, under the
// default fault mix, hold every invariant on seeds 1-3.
func TestFleetCoupledDefaultCaps(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := Run(Scenario{Seed: seed, Sessions: 300, DefaultCaps: true})
		for _, v := range res.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

// TestFleetProgressInvariantArmed: invariant 6 flags a session that
// completes past its bound and one that neither completes nor ends with
// a typed error, and passes one that ends with a typed error in time.
func TestFleetProgressInvariantArmed(t *testing.T) {
	base := fleetSession{total: 8 * chunkBytes, pumpGap: pumpEvery, faultEnd: time.Second}
	due := time.Second + progressBound
	for _, tc := range []struct {
		name string
		mod  func(*fleetSession)
		want bool
	}{
		{"done in time", func(fs *fleetSession) { fs.quiesced, fs.doneAt = true, due }, false},
		{"done late", func(fs *fleetSession) { fs.quiesced, fs.doneAt = true, due+1 }, true},
		{"wedged", func(fs *fleetSession) {}, true},
		{"typed error in time", func(fs *fleetSession) { fs.endErr, fs.endedAt = "core: peer overran the coupled reorder limit", due }, false},
		{"typed error late", func(fs *fleetSession) { fs.endErr, fs.endedAt = "dead", due+1 }, true},
	} {
		fs := base
		tc.mod(&fs)
		if got := fs.progressViolation(); (got != "") != tc.want {
			t.Errorf("%s: violation %q, want one: %v", tc.name, got, tc.want)
		}
	}
}

// TestFleetCatchesInjectedReorderBug is the harness self-test demanded
// by the acceptance criteria: disable the reorder cap (the PR-5
// regression), confirm the memory invariant catches it, shrink the
// fault schedule to a minimal failing subset, and confirm the shrunk
// scenario still reproduces from its repro line inputs.
func TestFleetCatchesInjectedReorderBug(t *testing.T) {
	sc := Scenario{
		Seed:             21,
		Sessions:         120,
		Faults:           60,
		FaultMix:         fault.Mix{DataStall: 6, Blackhole: 3, RST: 1},
		InjectReorderBug: true,
	}
	res := Run(sc)
	if !res.Failed() {
		t.Fatalf("campaign with reorder cap disabled passed — harness is blind to the injected bug (fingerprint %s)", res.Fingerprint())
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == VMemReorder {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("campaign failed but not via the memory invariant; violations: %v", res.Violations)
	}
	if !strings.Contains(res.ReproLine(), "-fleet.seed=21") {
		t.Fatalf("repro line does not carry the seed: %s", res.ReproLine())
	}

	min, minRes, trials := Shrink(sc)
	t.Logf("shrunk %d-fault schedule to %d events in %d trials: %+v",
		len(res.Scenario.Schedule), len(min.Schedule), trials, min.Schedule)
	if len(min.Schedule) > 5 {
		t.Fatalf("shrinker left %d events, want <= 5", len(min.Schedule))
	}
	if !minRes.Failed() {
		t.Fatal("shrunk scenario no longer fails")
	}
	// The minimal schedule must replay deterministically too, and from
	// its JSON lines.
	again := Run(min)
	if again.Fingerprint() != minRes.Fingerprint() {
		t.Fatal("shrunk scenario is not reproducible")
	}
	text, err := min.Schedule.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if back, err := fault.Parse(bytes.NewReader(text)); err != nil || !slices.Equal(back, min.Schedule) {
		t.Fatalf("shrunk schedule does not parse back from\n%s: %v", text, err)
	}

	// Control: the identical scenario with the cap enabled must pass —
	// the detector fires on the bug, not on the fault schedule.
	control := sc
	control.InjectReorderBug = false
	if cres := Run(control); cres.Failed() {
		t.Fatalf("control campaign (cap enabled) failed: %v", cres.Violations[0])
	}
}

// TestFleetRestartResume drives a restart-heavy campaign with two
// mid-campaign ticket-key rotations: every restart fault resumes the
// session's ticket against the shared key store before killing all its
// connections at once. The campaign's built-in oracle demands byte-exact
// PSK recovery inside the accept window, reissue under old generations,
// clean age-out past the window, single-use 0-RTT admission, and a
// bounded strike register — plus the usual invariants across the
// mass restarts.
func TestFleetRestartResume(t *testing.T) {
	sc := Scenario{
		Seed:         77,
		Sessions:     96,
		Faults:       96,
		FaultMix:     fault.Mix{RST: 1, Restart: 6},
		KeyRotations: 2,
	}
	res := Run(sc)
	t.Logf("resume outcomes: %+v (fingerprint %s)", res.Resume, res.Fingerprint())
	if res.Failed() {
		for i, v := range res.Violations {
			if i >= 20 {
				t.Errorf("... and %d more violations", len(res.Violations)-i)
				break
			}
			t.Errorf("%s", v)
		}
		t.Fatalf("restart/resume campaign failed; repro: %s", res.ReproLine())
	}
	r := res.Resume
	if r.Accepted == 0 {
		t.Fatal("no ticket resumed across any restart")
	}
	if r.Reissued == 0 {
		t.Fatal("no restart landed after a rotation — reissue path unexercised")
	}
	if r.ZeroRTT == 0 {
		t.Fatal("strike register admitted no first-use ticket")
	}
	if r.Replayed == 0 {
		t.Fatal("no session restarted twice on one ticket — replay refusal unexercised")
	}
	if r.ReplayPeak == 0 || r.ReplayPeak > r.ZeroRTT {
		t.Fatalf("strike register peak %d outside (0, %d]", r.ReplayPeak, r.ZeroRTT)
	}

	// The resume outcomes are part of the determinism contract.
	if again := Run(sc); again.Fingerprint() != res.Fingerprint() {
		t.Fatalf("same restart scenario, different campaigns: %s vs %s",
			res.Fingerprint(), again.Fingerprint())
	}
}

// TestFleetHealthOracle proves invariant 5 is armed, not inert: a
// stall-heavy campaign must actually raise StallSuspected on faulted
// sessions (the campaign still passes — those verdicts are correct and
// transient), every raise must land on a touched session (a spurious
// one fails the run), and the verdict counts must be part of the
// determinism contract.
func TestFleetHealthOracle(t *testing.T) {
	sc := Scenario{
		Seed:     11,
		Sessions: 120,
		Faults:   40,
		FaultMix: fault.Mix{DataStall: 3, Blackhole: 1},
	}
	res := Run(sc)
	if res.Failed() {
		for i, v := range res.Violations {
			if i >= 20 {
				break
			}
			t.Errorf("%s", v)
		}
		t.Fatalf("stall-heavy campaign failed; repro: %s", res.ReproLine())
	}
	stalls, total := 0, 0
	for i := range res.Sessions {
		for kind, n := range res.Sessions[i].Verdicts {
			total += n
			if kind == "stall_suspected" {
				stalls += n
			}
		}
	}
	t.Logf("health oracle: %d verdict raises (%d stall_suspected) across %d sessions",
		total, stalls, sc.Sessions)
	if stalls == 0 {
		t.Fatal("no StallSuspected raised under a stall-heavy fault mix — the health oracle is blind")
	}
	// Verdict raises ride the fingerprint: same scenario, same diagnosis.
	if again := Run(sc); again.Fingerprint() != res.Fingerprint() {
		t.Fatalf("same scenario, different diagnoses: %s vs %s",
			res.Fingerprint(), again.Fingerprint())
	}
}

// TestFleetArtifactAnalyzable checks the failure-artifact path end to
// end: RunTraced produces a qlog NDJSON trace that internal/qlog (the
// engine behind tcpls-trace -check) parses and analyzes cleanly.
func TestFleetArtifactAnalyzable(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunTraced(Scenario{Seed: 3, Sessions: 24}, 0, &buf)
	if err != nil {
		t.Fatalf("RunTraced: %v", err)
	}
	if res == nil || buf.Len() == 0 {
		t.Fatal("no artifact produced")
	}
	events, err := qlog.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("artifact has no events")
	}
	rep := qlog.Analyze(events, qlog.Options{})
	if rep == nil {
		t.Fatal("analyzer returned nothing")
	}
	sent, spans := 0, 0
	for _, ev := range events {
		switch ev.Name {
		case "record_sent":
			sent++
		case "record_span":
			spans++
			// The sim never reports socket writes, so that leg is "not
			// stamped" (0); no leg may be a converted zero time.
			if ev.EnqUS < 0 || ev.SealedUS < 0 || ev.WrittenUS != 0 || ev.AckedUS < 0 {
				t.Fatalf("line %d: span legs enq %d sealed %d written %d acked %d",
					ev.Line, ev.EnqUS, ev.SealedUS, ev.WrittenUS, ev.AckedUS)
			}
		}
	}
	if sent == 0 {
		t.Fatal("artifact carries no record_sent events — wrong endpoint captured?")
	}
	if spans == 0 {
		t.Fatal("artifact carries no record_span events")
	}
	// Negative timestamps are what tcpls-trace -check now refuses.
	for _, v := range rep.Violations {
		if strings.Contains(v, "negative") {
			t.Fatalf("artifact fails -check: %s", v)
		}
	}
}

// TestFleetRefusesRelayOnlyKinds: a schedule holding a kind the
// simulator cannot inject runs nothing and fails with one violation that
// names the kind.
func TestFleetRefusesRelayOnlyKinds(t *testing.T) {
	res := Run(Scenario{Seed: 1, Sessions: 4, Schedule: fault.Schedule{{Kind: fault.RST}, {At: time.Second, Kind: fault.Stall}}})
	if len(res.Violations) != 1 || res.Violations[0].Kind != VSchedule || !strings.Contains(res.Violations[0].Detail, "stall") {
		t.Fatalf("violations %v, want one %s naming stall", res.Violations, VSchedule)
	}
}
