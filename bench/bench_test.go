package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"tcpls"
)

// smokeParams keeps every run far below the smoke test's budget: it is
// about the plumbing, not the numbers.
func smokeParams() params {
	return params{seed: 7, measure: 300 * time.Millisecond, warmup: 30 * time.Millisecond, slices: 3, setups: 1}
}

func checkMetrics(t *testing.T, where string, want []metricSpec, got map[string]metric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s of BENCHMARK.json is not printed", where, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", where, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Median) || math.IsInf(g.Median, 0):
			t.Errorf("%s: metric %s is %v", where, m.Name, g.Median)
		}
	}
}

// TestSmoke runs every workload, traced and untraced, and the ladder
// probe, and checks that every metric BENCHMARK.json names comes out with
// its unit and that no operation fails.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	ld, err := runLadder(7, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		p := smokeParams()
		res, err := runWorkload(wl, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed)", wl.name, res.Failed, res.Attempted)
		}
		checkMetrics(t, wl.name, sp.EndToEnd, res.Metrics)
		// Under the race detector a 300 ms run completes a dozen blocks,
		// too few for every slice to see one delivered.
		for _, m := range sp.EndToEnd {
			if res.Metrics[m.Name].Median == 0 && res.Attempted >= 50 {
				t.Errorf("%s: end-to-end metric %s is 0", wl.name, m.Name)
			}
		}

		p.trace = true
		traced, err := runWorkload(wl, p)
		if err != nil {
			t.Fatal(err)
		}
		if traced.Failed != 0 {
			t.Errorf("%s traced: %d operations failed)", wl.name, traced.Failed)
		}
		if r := traced.Metrics["server.rejects"].Median; r != 0 {
			t.Errorf("%s traced: server.rejects = %v", wl.name, r)
		}
		for name, m := range ld.Metrics {
			traced.Metrics[name] = m
		}
		checkMetrics(t, wl.name+" traced", sp.PerLayer, traced.Metrics)
	}
}

// TestDamageCountsAsFailed damages one operation's payload on each
// workload (on the bulk workloads, a block the sink compares in full) and
// expects exactly that to be counted as a failed operation.
func TestDamageCountsAsFailed(t *testing.T) {
	for _, wl := range workloads {
		p := smokeParams()
		p.corrupt = true
		res, err := runWorkload(wl, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 1 {
			t.Errorf("%s: %d failed operations with one damaged, want 1", wl.name, res.Failed)
		}
	}
}

// TestPlainRungIsPlainTLS checks the base of ladder.tcpls_over_tls: the
// plainTLS variant must run without TCPLS on both ends (no session to
// join), the default variant with it.
func TestPlainRungIsPlainTLS(t *testing.T) {
	for _, plain := range []bool{false, true} {
		in, err := startBulk(params{seed: 7}, variant{plainTLS: plain})
		if err != nil {
			t.Fatal(err)
		}
		b := in.(*bulk)
		_, err = b.sess.JoinPath("tcp", b.env.addr)
		if got := errors.Is(err, tcpls.ErrNotTCPLS); got != plain {
			t.Errorf("plainTLS=%v: JoinPath returned %v", plain, err)
		}
		if err := in.warm(); err != nil {
			t.Errorf("plainTLS=%v: %v", plain, err)
		}
		if err := in.finish(); err != nil {
			t.Errorf("plainTLS=%v: %v", plain, err)
		}
	}
}
