package sched

import (
	"testing"
	"time"
)

func views(n int) []PathView {
	out := make([]PathView, n)
	for i := range out {
		out[i] = PathView{Stream: uint32(2 + 2*i), Conn: uint32(i)}
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	s := RoundRobin()
	v := views(3)
	for i := uint64(0); i < 9; i++ {
		if got, want := s.Pick(i, v), int(i%3); got != want {
			t.Fatalf("pick(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestLowestRTTPicksFastestAndProbes(t *testing.T) {
	s := LowestRTT()
	v := views(3)
	v[0].SRTT, v[0].HasRTT = 30*time.Millisecond, true
	v[1].SRTT, v[1].HasRTT = 5*time.Millisecond, true
	v[2].HasRTT = false

	counts := make([]int, 3)
	for i := uint64(0); i < 100; i++ {
		counts[s.Pick(i, v)]++
	}
	if counts[1] < counts[0] || counts[1] < counts[2] {
		t.Fatalf("fastest path not preferred: %v", counts)
	}
	if counts[2] == 0 {
		t.Fatalf("unmeasured path never probed: %v", counts)
	}
	if counts[0] != 0 {
		t.Fatalf("slowest measured path picked: %v", counts)
	}
}

func TestLowestRTTAllUnknownFallsBackToRoundRobin(t *testing.T) {
	s := LowestRTT()
	v := views(2)
	seen := map[int]bool{}
	for i := uint64(0); i < 4; i++ {
		seen[s.Pick(i, v)] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("expected both paths used, got %v", seen)
	}
}

func TestWeightedRateProportionalShares(t *testing.T) {
	s := WeightedRate()
	v := views(2)
	v[0].DeliveryRate, v[0].HasRate = 1_000_000, true // 1 MB/s
	v[1].DeliveryRate, v[1].HasRate = 4_000_000, true // 4 MB/s

	counts := make([]int, 2)
	for i := uint64(0); i < 1000; i++ {
		counts[s.Pick(i, v)]++
	}
	// Expect an 1:4 split, i.e. ~200/~800.
	if counts[0] < 150 || counts[0] > 250 {
		t.Fatalf("share not proportional to rate: %v", counts)
	}
}

func TestWeightedRateColdStartIsFair(t *testing.T) {
	s := WeightedRate()
	v := views(2) // no rate estimates at all
	counts := make([]int, 2)
	for i := uint64(0); i < 100; i++ {
		counts[s.Pick(i, v)]++
	}
	if counts[0] != 50 || counts[1] != 50 {
		t.Fatalf("cold start not fair: %v", counts)
	}
}

func TestWeightedRateUnknownPathGetsMeanShare(t *testing.T) {
	s := WeightedRate()
	v := views(2)
	v[0].DeliveryRate, v[0].HasRate = 2_000_000, true
	// v[1] unknown: weighted at the mean known rate, so ~50/50.
	counts := make([]int, 2)
	for i := uint64(0); i < 100; i++ {
		counts[s.Pick(i, v)]++
	}
	if counts[1] < 40 || counts[1] > 60 {
		t.Fatalf("unknown path starved or flooded: %v", counts)
	}
}

func TestRedundantPicksAll(t *testing.T) {
	s := Redundant()
	if got := s.Pick(0, views(3)); got != PickAll {
		t.Fatalf("Pick = %d, want PickAll (%d)", got, PickAll)
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"roundrobin": "roundrobin", "rr": "roundrobin",
		"lowrtt": "lowrtt", "lowestrtt": "lowrtt",
		"rate": "rate", "weightedrate": "rate",
		"redundant": "redundant",
	} {
		s, ok := ByName(name)
		if !ok || s.Name() != want {
			t.Fatalf("ByName(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Fatal("bogus name accepted")
	}
	if _, ok := ByName(""); ok {
		t.Fatal("empty name accepted")
	}
}

func TestMetricsRTTEstimator(t *testing.T) {
	m := NewMetrics()
	now := time.Unix(1000, 0)
	m.OnSent(1, 1000)
	m.OnAcked(1, 1000, 40*time.Millisecond, now)
	st, ok := m.Snapshot(1)
	if !ok || !st.HasRTT {
		t.Fatal("no RTT after first sample")
	}
	if st.SRTT != 40*time.Millisecond || st.RTTVar != 20*time.Millisecond {
		t.Fatalf("first sample: srtt=%v rttvar=%v", st.SRTT, st.RTTVar)
	}
	// Second sample: srtt = 7/8*40 + 1/8*80 = 45ms.
	m.OnAcked(1, 0, 80*time.Millisecond, now.Add(time.Second))
	st, _ = m.Snapshot(1)
	if st.SRTT != 45*time.Millisecond {
		t.Fatalf("srtt after second sample = %v, want 45ms", st.SRTT)
	}
	if st.InFlight != 0 {
		t.Fatalf("inflight = %d", st.InFlight)
	}
}

func TestMetricsDeliveryRate(t *testing.T) {
	m := NewMetrics()
	now := time.Unix(2000, 0)
	m.OnAcked(1, 64_000, 0, now) // establishes the interval start
	m.OnAcked(1, 100_000, 0, now.Add(100*time.Millisecond))
	st, _ := m.Snapshot(1)
	if !st.HasRate {
		t.Fatal("no rate after timed acks")
	}
	if st.DeliveryRate < 900_000 || st.DeliveryRate > 1_100_000 {
		t.Fatalf("rate = %.0f B/s, want ~1MB/s", st.DeliveryRate)
	}
	v := PathView{Conn: 1}
	m.Fill(&v)
	if !v.HasRate || v.DeliveryRate != st.DeliveryRate {
		t.Fatalf("Fill = %+v, Snapshot = %+v", v, st)
	}
}

func TestMetricsLossAndForget(t *testing.T) {
	m := NewMetrics()
	m.OnSent(2, 500)
	m.OnLost(2, 500)
	st, _ := m.Snapshot(2)
	if st.Losses != 1 || st.InFlight != 0 {
		t.Fatalf("loss accounting: %+v", st)
	}
	m.Forget(2)
	if _, ok := m.Snapshot(2); ok {
		t.Fatal("Forget left state behind")
	}
}

func TestMetricsConcurrentAccess(t *testing.T) {
	// The store is documented safe for concurrent use; -race keeps it
	// honest: a reader snapshots while the engine feeds acks.
	m := NewMetrics()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			m.Snapshot(1)
		}
	}()
	now := time.Unix(3000, 0)
	for i := 0; i < 1000; i++ {
		m.OnSent(1, 100)
		m.OnAcked(1, 100, 20*time.Millisecond, now.Add(time.Duration(i)*time.Millisecond))
		v := PathView{Conn: 1}
		m.Fill(&v)
	}
	<-done
}
