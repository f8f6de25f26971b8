// Package fault declares the fault vocabulary once: every fault the
// repository injects — into real sockets through an internal/netem
// relay, or into simulated links on the internal/sim virtual clock — is
// a Fault of one Kind, and a Schedule is a list of them sorted by time.
// A schedule round-trips through JSON, one object per line, so a fleet
// counterexample is a file that tcpls-netem can replay against real
// sockets.
//
// Two executors run schedules: the relay's (netem.Relay.Run, on the wall
// clock) and Play (on the virtual clock, over a Net). Each refuses, with
// an *Unsupported error before the first fault fires, a schedule that
// holds a kind its medium cannot express.
package fault

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

// Kind names one fault. Each meaning has one name; where a relay and a
// simulated link realize it differently, the kind says how.
type Kind int

const (
	// RST resets a connection: on a relay every forwarded one (a TCP
	// RST), in the simulator the target session's connection on Path.
	RST Kind = iota + 1
	// Blackhole takes the path down for Dur (zero: until Restore). In
	// the simulator both directions drop every packet; a relay closes
	// its connections and refuses new ones.
	Blackhole
	// DataStall drops the data direction of the target path for Dur
	// while ACKs keep flowing: only a user timeout notices.
	DataStall
	// Degrade cuts the data direction's rate to 1/8 for Dur.
	Degrade
	// RSTStorm resets a connection on every Stride-th session from
	// Session on: a middlebox reboot or conntrack flush.
	RSTStorm
	// RackOutage blackholes every path of every session in Rack for Dur:
	// a top-of-rack switch dying.
	RackOutage
	// Restart restarts the server process under the target session:
	// every connection dies and the session resumes from its ticket.
	Restart
	// Stall freezes both directions for Dur (zero: until Unstall),
	// mid-record if bytes are in flight: sockets stay open and nothing
	// moves.
	Stall
	// Unstall ends a Stall.
	Unstall
	// Restore ends a Blackhole.
	Restore
	// HalfClose sends a FIN toward every client while client→server
	// keeps flowing.
	HalfClose
	// KillAfter resets every connection once Bytes more payload bytes
	// (both directions) went through.
	KillAfter
	// Resegment re-chunks the Dir stream for Dur, into Bytes-sized
	// segments, or into 1, 7, 64, 512 and 4096 bytes in turn if Bytes is
	// zero: record boundaries are destroyed.
	Resegment
	// Corrupt flips one bit every Bytes bytes of the Dir stream for Dur:
	// the payload-rewriting ALG.
	Corrupt
	// RejectHello aborts each new connection whose first client bytes
	// carry a ClientHello with the TCPLS extension, for Dur: the
	// extension-filtering firewall that forces the explicit fallback.
	RejectHello
)

var names = [...]string{
	RST: "rst", Blackhole: "blackhole", DataStall: "data_stall", Degrade: "degrade",
	RSTStorm: "rst_storm", RackOutage: "rack_outage", Restart: "restart",
	Stall: "stall", Unstall: "unstall", Restore: "restore", HalfClose: "half_close",
	KillAfter: "kill_after", Resegment: "resegment", Corrupt: "corrupt", RejectHello: "reject_hello",
}

func (k Kind) String() string {
	if k > 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

func (k Kind) MarshalText() ([]byte, error) {
	if k <= 0 || int(k) >= len(names) {
		return nil, fmt.Errorf("fault: no kind %d", int(k))
	}
	return []byte(names[k]), nil
}

// UnmarshalText takes a kind's name.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, n := range names {
		if i > 0 && n == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("fault: unknown kind %q", b)
}

// Dir is the direction of the stream a fault rewrites: "" both, Up or
// Down.
type Dir string

const (
	Up   Dir = "up"   // client to server
	Down Dir = "down" // server to client
)

// Fault is one scheduled fault: at At, Kind hits its target — Session
// and Path, Rack, every Stride-th session — with its arguments. Which
// fields matter depends on Kind. In JSON, times are Go durations and
// zero fields are left out.
type Fault struct {
	At      time.Duration `json:"-"`
	Kind    Kind          `json:"kind"`
	Session int           `json:"session,omitempty"`
	Path    int           `json:"path,omitempty"`
	Rack    int           `json:"rack,omitempty"`
	Stride  int           `json:"stride,omitempty"`
	Dur     time.Duration `json:"-"`
	Bytes   int64         `json:"bytes,omitempty"`
	Dir     Dir           `json:"dir,omitempty"`
}

// plain is a Fault without its JSON methods.
type plain Fault

func (f Fault) MarshalJSON() ([]byte, error) {
	w := struct {
		At string `json:"at"`
		plain
		Dur string `json:"dur,omitempty"`
	}{At: f.At.String(), plain: plain(f)}
	if f.Dur != 0 {
		w.Dur = f.Dur.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON takes one fault object; the kind is required, and no
// time, target or argument may be negative.
func (f *Fault) UnmarshalJSON(b []byte) error {
	w := struct {
		At  string `json:"at"`
		Dur string `json:"dur"`
		*plain
	}{plain: (*plain)(f)}
	*f = Fault{}
	err := json.Unmarshal(b, &w)
	if err == nil {
		f.At, err = time.ParseDuration(w.At)
	}
	if err == nil && w.Dur != "" {
		f.Dur, err = time.ParseDuration(w.Dur)
	}
	switch {
	case err != nil:
		return err
	case f.Kind == 0:
		return errors.New("fault: no kind")
	case f.Dir != "" && f.Dir != Up && f.Dir != Down:
		return fmt.Errorf("fault: unknown direction %q", f.Dir)
	case min(f.At, f.Dur) < 0 || min(f.Session, f.Path, f.Rack, f.Stride) < 0 || f.Bytes < 0:
		return errors.New("fault: negative time, target or argument")
	}
	return nil
}

// Schedule is a list of faults in time order; faults at the same time
// run in the order given.
type Schedule []Fault

// Sort orders s by time, stably.
func (s Schedule) Sort() {
	slices.SortStableFunc(s, func(a, b Fault) int { return cmp.Compare(a.At, b.At) })
}

// Marshal writes s as JSON lines, one fault each: what Parse reads.
func (s Schedule) Marshal() ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, f := range s {
		if err := enc.Encode(f); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// ParseError is why Parse refused its input: the first bad line and what
// was wrong with it.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string { return fmt.Sprintf("fault: line %d: %v", e.Line, e.Err) }
func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads a schedule written as JSON lines, one fault each; blank
// lines are skipped. The schedule comes back sorted.
func Parse(r io.Reader) (Schedule, error) {
	var s Schedule
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var f Fault
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, &ParseError{n, err}
		}
		s = append(s, f)
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{0, err}
	}
	s.Sort()
	return s, nil
}

// Unsupported is an executor's refusal of a schedule that holds a kind
// its medium cannot express. It comes before any fault fires.
type Unsupported struct {
	Kind   Kind
	Medium string
}

func (e *Unsupported) Error() string {
	return fmt.Sprintf("fault: %s cannot be injected into a %s", e.Kind, e.Medium)
}

// Check refuses s with an *Unsupported error unless every kind in it is
// one of kinds, the ones medium expresses.
func (s Schedule) Check(medium string, kinds ...Kind) error {
	for _, f := range s {
		if !slices.Contains(kinds, f.Kind) {
			return &Unsupported{f.Kind, medium}
		}
	}
	return nil
}
