package experiments

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"tcpls/internal/core"
)

// These tests assert the figure *shapes* the paper reports — who wins,
// by roughly what factor, where the crossovers are — not absolute
// numbers (EXPERIMENTS.md records both). They are the repository's
// top-level integration tests: every substrate participates.

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

func TestFig7Shape(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("throughput ratios are meaningless under the race detector")
	}
	// 256 MiB per stack, a fifth of a second each.
	rows, err := Fig7(1500, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	byStack := map[string]Fig7Row{}
	for _, r := range rows {
		byStack[r.Stack] = r
	}
	tls := byStack["tls-tcp"].Gbps
	tcpls := byStack["tcpls"].Gbps
	quicly := byStack["quicly"].Gbps
	msquic := byStack["msquic"].Gbps
	mvfst := byStack["mvfst"].Gbps

	// These are process CPU-time measurements, so other packages' tests
	// sharing the machine do not count; the margins are still generous,
	// and cmd/tcpls-experiments reports the precise ratios.
	//
	// Paper §5.1: TCPLS ≈ TLS/TCP (same record pipeline).
	if tcpls < tls*0.40 {
		t.Errorf("tcpls %.2f far below tls-tcp %.2f", tcpls, tls)
	}
	// Failover and multipath cost extra work below the base engine
	// (Fig. 7: 10.44 -> 9.66 -> 8.8 Gbps). Failover replays the sealed
	// records it keeps, so its extra work is the acks, a few percent:
	// less than one run's noise here. Each variant is therefore timed
	// next to the base engine, round after round, in process CPU time
	// (a wall clock also counts whatever else the host runs), and the
	// median of its ratios to the base is what must stay below it.
	failover, multipath := ratiosToBase(t, 9, 64<<20)
	if failover >= 1.05 {
		t.Errorf("failover at %.2fx the base engine, want below it", failover)
	}
	if multipath >= 1.05 {
		t.Errorf("multipath at %.2fx the base engine, want below it", multipath)
	}
	// "TCPLS with TSO is twice faster" than the fastest QUIC.
	if tcpls < 1.5*quicly {
		t.Errorf("tcpls %.2f not ~2x quicly %.2f", tcpls, quicly)
	}
	// QUIC implementation ordering.
	if !(quicly > msquic && msquic > mvfst) {
		t.Errorf("QUIC ordering wrong: quicly=%.2f msquic=%.2f mvfst=%.2f", quicly, msquic, mvfst)
	}
}

// ratiosToBase times the base engine, failover and multipath back to
// back for rounds rounds of n bytes each, in process CPU time, and
// returns the median, over the rounds, of the failover and multipath
// throughputs over the base's.
func ratiosToBase(t *testing.T, rounds, n int) (failover, multipath float64) {
	fo := core.Config{EnableFailover: true, AckPeriod: 16}
	var fr, mr []float64
	for i := 0; i < rounds; i++ {
		var secs [3]float64
		for j, v := range []struct {
			cfg core.Config
			mp  bool
		}{{core.Config{}, false}, {fo, false}, {fo, true}} {
			runtime.GC() // no run pays for the garbage of the one before
			s, err := tcplsPipeline(n, v.cfg, v.mp)
			if err != nil {
				t.Fatal(err)
			}
			secs[j] = s
		}
		fr, mr = append(fr, secs[0]/secs[1]), append(mr, secs[0]/secs[2])
	}
	slices.Sort(fr)
	slices.Sort(mr)
	return fr[rounds/2], mr[rounds/2]
}

func TestFig7JumboShape(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("throughput ratios are meaningless under the race detector")
	}
	rows, err := Fig7(9000, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	var tcpls, quicly float64
	for _, r := range rows {
		switch r.Stack {
		case "tcpls":
			tcpls = r.Gbps
		case "quicly-jumbo":
			quicly = r.Gbps
		}
	}
	// At 9000 MTU TCPLS still leads quicly (the paper's jumbo bars).
	if tcpls <= quicly {
		t.Errorf("jumbo: tcpls %.2f not above quicly %.2f", tcpls, quicly)
	}
}

func TestFig8BlackholeShape(t *testing.T) {
	r, err := Fig8("blackhole")
	if err != nil {
		t.Fatal(err)
	}
	// TCPLS: UserTimeout + join + replay lands well under 2 s (paper:
	// ≈1 s); it must not be instant (the UTO must actually elapse).
	if r.TCPLSRecovery < 250*time.Millisecond || r.TCPLSRecovery > 2*time.Second {
		t.Errorf("TCPLS blackhole recovery %v outside [0.25s, 2s]", r.TCPLSRecovery)
	}
	// MPTCP needs backed-off RTOs: slower than TCPLS.
	if r.MPTCPRecovery <= r.TCPLSRecovery {
		t.Errorf("MPTCP recovery %v not slower than TCPLS %v", r.MPTCPRecovery, r.TCPLSRecovery)
	}
	// Both resume at full rate afterwards.
	if after := r.TCPLS.MeanBetween(sec(6), sec(15)); after < 10 {
		t.Errorf("TCPLS post-failover goodput %.1f Mbps", after)
	}
	if after := r.MPTCP.MeanBetween(sec(6), sec(15)); after < 10 {
		t.Errorf("MPTCP post-failover goodput %.1f Mbps", after)
	}
}

func TestFig8RSTShape(t *testing.T) {
	r, err := Fig8("rst")
	if err != nil {
		t.Fatal(err)
	}
	// "Upon reception of a TCP RST, both TCPLS and MPTCP react fast."
	if r.TCPLSRecovery > time.Second {
		t.Errorf("TCPLS RST recovery %v, want < 1s", r.TCPLSRecovery)
	}
	if r.MPTCPRecovery > time.Second {
		t.Errorf("MPTCP RST recovery %v, want < 1s", r.MPTCPRecovery)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if r.TCPLSDone == 0 {
		t.Fatal("TCPLS never completed the 60 MB download")
	}
	if r.MPTCPDone == 0 {
		t.Fatal("MPTCP never completed the 60 MB download")
	}
	// Fig. 9's claim: TCPLS completes the transfer substantially faster
	// under rotating outages.
	if float64(r.MPTCPDone) < 1.4*float64(r.TCPLSDone) {
		t.Errorf("MPTCP %v not substantially slower than TCPLS %v", r.MPTCPDone, r.TCPLSDone)
	}
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if r.Done == 0 {
		t.Fatal("migration download never completed")
	}
	pre := r.Goodput.MeanBetween(sec(2), sec(6))
	mid := r.Goodput.MeanBetween(sec(9), sec(12))
	post := r.Goodput.MeanBetween(sec(15), sec(18))
	// Goodput is sustained through both migrations (no dead window).
	if mid < pre*0.5 || post < pre*0.5 {
		t.Errorf("goodput collapsed across migrations: pre=%.1f mid=%.1f post=%.1f", pre, mid, post)
	}
	// The migration window shows the temporary aggregation peak.
	peak := 0.0
	for _, p := range r.Goodput.Points {
		if p.T >= r.Migrations[0] && p.T < r.Migrations[0]+sec(3) && p.Mbps > peak {
			peak = p.Mbps
		}
	}
	if peak < pre*1.2 {
		t.Errorf("no aggregation peak in migration window: peak=%.1f pre=%.1f", peak, pre)
	}
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(16368)
	if err != nil {
		t.Fatal(err)
	}
	tcplsPre := r.TCPLS.MeanBetween(sec(2), sec(5))
	tcplsPost := r.TCPLS.MeanBetween(sec(9), sec(16))
	mptcpPost := r.MPTCP.MeanBetween(sec(9), sec(16))
	// Aggregation: both stacks go well beyond a single 25 Mbps path.
	if tcplsPost < tcplsPre*1.5 {
		t.Errorf("TCPLS aggregation %.1f -> %.1f: no 1.5x gain", tcplsPre, tcplsPost)
	}
	if mptcpPost < 25 {
		t.Errorf("MPTCP aggregated only %.1f Mbps", mptcpPost)
	}
	// "TCPLS offers a bandwidth aggregation service similar to MPTCP":
	// within 25% of each other.
	if tcplsPost < mptcpPost*0.75 || mptcpPost < tcplsPost*0.75 {
		t.Errorf("aggregation mismatch: tcpls=%.1f mptcp=%.1f", tcplsPost, mptcpPost)
	}
	if r.TCPLSDone == 0 || r.MPTCPDone == 0 {
		t.Error("a transfer did not complete")
	}
}

func TestFig12Shape(t *testing.T) {
	r, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Swapped {
		t.Fatal("eBPF program never attached")
	}
	unfairV := r.Vegas.MeanBetween(sec(10), sec(15))
	unfairC := r.Cubic.MeanBetween(sec(10), sec(15))
	lateV := r.Vegas.MeanBetween(sec(40), sec(50))
	lateC := r.Cubic.MeanBetween(sec(40), sec(50))
	// Before the swap the CUBIC session dominates the Vegas session.
	if unfairC < 2*unfairV {
		t.Errorf("expected unfairness before swap: vegas=%.1f cubic=%.1f", unfairV, unfairC)
	}
	// After the swap the shares converge toward fair (the model
	// converges more slowly than the paper's plot; see EXPERIMENTS.md).
	if lateC > 2*lateV {
		t.Errorf("still unfair long after swap: s1=%.1f s2=%.1f", lateV, lateC)
	}
	if lateV < unfairV*1.3 {
		t.Errorf("swapped session share did not improve: %.1f -> %.1f", unfairV, lateV)
	}
}

func TestFig13SmallRecords(t *testing.T) {
	r, err := Fig11(1500)
	if err != nil {
		t.Fatal(err)
	}
	post := r.TCPLS.MeanBetween(sec(9), sec(16))
	if post < 25 {
		t.Errorf("1500-byte records aggregated only %.1f Mbps", post)
	}
	if r.TCPLSDone == 0 {
		t.Error("transfer did not complete with 1500-byte records")
	}
}

func TestTable1Completeness(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("Table 1 has %d rows, want 7", len(rows))
	}
	for _, r := range rows {
		for _, v := range []string{r.TCP, r.MPTCP, r.TLSTCP, r.QUIC, r.TCPLS} {
			switch v {
			case "yes", "no", "partial":
			default:
				t.Errorf("row %q: invalid value %q", r.Service, v)
			}
		}
	}
	// TCPLS must claim every service except full HoL-blocking avoidance.
	for _, r := range rows {
		if r.Service == "HoL blocking avoidance" {
			if r.TCPLS != "partial" {
				t.Errorf("TCPLS HoL should be partial, got %q", r.TCPLS)
			}
		} else if r.TCPLS != "yes" {
			t.Errorf("TCPLS %q should be yes, got %q", r.Service, r.TCPLS)
		}
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Points: []Point{
		{T: sec(0.5), Mbps: 10},
		{T: sec(1.5), Mbps: 20},
		{T: sec(2.5), Mbps: 30},
	}}
	if got := s.Mean(); got != 20 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.MeanBetween(sec(1), sec(3)); got != 25 {
		t.Errorf("MeanBetween = %v", got)
	}
	if got := s.Max(); got != 30 {
		t.Errorf("Max = %v", got)
	}
	if got := recoveryAfter(s, sec(1), 25); got != sec(2.5) {
		t.Errorf("recoveryAfter = %v", got)
	}
	if got := Jitter(s, sec(0), sec(3)); got < 8 || got > 9 {
		t.Errorf("Jitter = %v, want ~8.16", got)
	}
	if out := FormatSeries(s); len(out) == 0 {
		t.Error("FormatSeries empty")
	}
}
