package fault

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"tcpls/internal/sim"
)

// FuzzSchedule: schedules arrive from outside the program (tcpls-netem's
// stdin, fleet artifacts). Arbitrary bytes either parse into a schedule
// that marshals and parses back to itself, or fail with a *ParseError;
// nothing panics.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte(`{"at":"300ms","kind":"rst"}`))
	f.Add([]byte("{\"at\":\"770.121763ms\",\"kind\":\"rst\",\"session\":15,\"rack\":7}\n" +
		"{\"at\":\"795.884121ms\",\"kind\":\"data_stall\",\"session\":15,\"path\":1,\"rack\":6,\"dur\":\"1.457093853s\"}\n"))
	f.Add([]byte(`{"at":"1s","kind":"resegment","bytes":3,"dir":"up"}` + "\n\n" + `{"at":"0s","kind":"kill_after","bytes":4096}`))
	f.Add([]byte(`{"at":"-1s","kind":"stall"}`))
	f.Add([]byte(`{"at":"1s","kind":"bogus"}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := Parse(bytes.NewReader(in))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		text, err := s.Marshal()
		if err != nil {
			t.Fatalf("parsed schedule does not marshal: %v", err)
		}
		back, err := Parse(bytes.NewReader(text))
		if err != nil || !slices.Equal(back, s) {
			t.Fatalf("round trip: %v\n%v\n%v", err, s, back)
		}
	})
}

// fakeNet is one session over two paths that records its resets.
type fakeNet struct {
	paths  []*sim.Path
	resets []int
}

func newFakeNet(s *sim.Sim) *fakeNet {
	return &fakeNet{paths: []*sim.Path{sim.NewPath(s, 1e6, 0), sim.NewPath(s, 1e6, 0)}}
}

func (n *fakeNet) Sessions() int           { return 1 }
func (n *fakeNet) PathsOf(int) []*sim.Path { return n.paths }
func (n *fakeNet) Reset(_, p int)          { n.resets = append(n.resets, p) }

// TestPlayRunsKindsAndTheirEnds: on the virtual clock, each fault fires
// at its time on the path it names, and one with a Dur ends by itself.
func TestPlayRunsKindsAndTheirEnds(t *testing.T) {
	s := sim.New()
	n := newFakeNet(s)
	p0, p1 := n.paths[0], n.paths[1]
	err := Play(s, n, Schedule{
		{At: 10 * time.Millisecond, Kind: Blackhole, Path: 1, Dur: 10 * time.Millisecond},
		{At: 30 * time.Millisecond, Kind: DataStall, Path: 2, Dur: 10 * time.Millisecond}, // wraps to path 0
		{At: 50 * time.Millisecond, Kind: Degrade, Path: 1, Dur: 10 * time.Millisecond},
		{At: 70 * time.Millisecond, Kind: RST, Path: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		at   time.Duration
		what string
		ok   func() bool
	}{
		{15 * time.Millisecond, "blackhole", func() bool { return p1.AtoB.Down && p1.BtoA.Down }},
		{25 * time.Millisecond, "blackhole's end", func() bool { return !p1.AtoB.Down && !p1.BtoA.Down }},
		{35 * time.Millisecond, "data stall", func() bool { return p0.AtoB.Down && !p0.BtoA.Down }},
		{45 * time.Millisecond, "data stall's end", func() bool { return !p0.AtoB.Down }},
		{55 * time.Millisecond, "degrade", func() bool { return p1.AtoB.RateBps == 1e6/8 && p1.BtoA.RateBps == 1e6 }},
		{65 * time.Millisecond, "degrade's end", func() bool { return p1.AtoB.RateBps == 1e6 }},
		{75 * time.Millisecond, "rst on path 1", func() bool { return slices.Equal(n.resets, []int{1}) }},
	}
	for _, st := range steps {
		s.RunUntil(st.at)
		if !st.ok() {
			t.Errorf("at %v: no %s", st.at, st.what)
		}
	}
}

// TestPlayRefusesWhatASimulatorCannotExpress: a schedule holding a kind
// a simulated network cannot express, or one only a fleet can, is
// refused whole, naming the kind, before any of its faults fires.
func TestPlayRefusesWhatASimulatorCannotExpress(t *testing.T) {
	for _, k := range []Kind{Stall, HalfClose, KillAfter, Resegment, Corrupt, RejectHello, RackOutage, Restart} {
		s := sim.New()
		n := newFakeNet(s)
		err := Play(s, n, Schedule{{Kind: RST}, {At: time.Millisecond, Kind: k}})
		var un *Unsupported
		if !errors.As(err, &un) || un.Kind != k {
			t.Errorf("%v: err %v, want *Unsupported naming it", k, err)
		}
		s.RunUntil(time.Second)
		if len(n.resets) != 0 {
			t.Errorf("%v: the refused schedule's RST fired", k)
		}
	}
}

// TestGenIsSeeded: one seed draws one schedule, sorted by time.
func TestGenIsSeeded(t *testing.T) {
	sp := Spec{Seed: 7, Faults: 50, Window: time.Second, Sessions: 10, Paths: 2, Racks: 3, UserTimeout: time.Second}
	a, b := Gen(sp), Gen(sp)
	if !slices.Equal(a, b) || len(a) != 50 {
		t.Fatalf("two draws of one seed differ, or the wrong count (%d)", len(a))
	}
	if !slices.IsSortedFunc(a, func(x, y Fault) int { return int(x.At - y.At) }) {
		t.Fatal("generated schedule not sorted")
	}
}

// TestShrinkFindsTheCulprits: ddmin cuts a schedule down to the faults
// the failure needs.
func TestShrinkFindsTheCulprits(t *testing.T) {
	var s Schedule
	for i := range 20 {
		s = append(s, Fault{At: time.Duration(i), Kind: RST, Session: i})
	}
	has := func(s Schedule, i int) bool {
		return slices.ContainsFunc(s, func(f Fault) bool { return f.Session == i })
	}
	min, trials := Shrink(s, 200, func(s Schedule) bool { return has(s, 3) && has(s, 17) })
	if len(min) != 2 || !has(min, 3) || !has(min, 17) {
		t.Fatalf("shrunk to %v in %d trials, want sessions 3 and 17", min, trials)
	}
}
