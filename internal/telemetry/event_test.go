package telemetry

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unsafe"
)

// tracedNames is every event name the library emits. The names passed
// as literals to trace/Note and the wrapper's noteTrace helpers are
// checked against the source below; record_span (built in traceSpan)
// and the health verdict kinds (health.Kind.String, noted by value)
// reach the tracer without a literal call site and are listed by hand.
var tracedNames = []string{
	"record_sent", "record_received", "ack_sent", "ack_received",
	"ack_solicited", "ack_requested", "dup_dropped", "ctl_sent",
	"ctl_received", "flowctl_limit",
	"record_span",
	"conn_failed", "failover_started", "failover_notified",
	"failover_cascade", "failover_error", "sync_sent", "sync_received",
	"retransmit", "reconnect_attempt", "reconnect_ok", "recovery_failed",
	"sched_pick", "sched_invalid", "reorder_depth",
	"conn_added", "stream_attached", "stream_fin", "cookie_issued",
	"cookie_consumed", "cookie_received", "join_accepted", "join_fastpath",
	"join_rejected", "ticket_issued", "ticket_received", "ticket_reissued",
	"resume_accepted", "resume_rejected", "early_data_accepted",
	"early_data_rejected",
	"healthy", "stall_suspected", "retransmit_storm", "memory_growth",
	"path_asymmetry", "resume_failure_spike", "admission_pressure",
}

var traceCall = regexp.MustCompile(
	`\b(?:trace|Note|noteTrace)\("([a-z0-9_]+)"|\bnoteSessionTrace\([^,()]+, "([a-z0-9_]+)"`)

// TestEveryTracedNameHasCategory: an event name the engine or the
// wrapper emits must be listed above and have its own case in category;
// "session" is only for names this repository does not know.
func TestEveryTracedNameHasCategory(t *testing.T) {
	listed := map[string]bool{}
	for _, name := range tracedNames {
		listed[name] = true
		if category(name) == "session" {
			t.Errorf("%s has no case in category()", name)
		}
	}
	if category("some_future_event") != "session" {
		t.Error("unknown names must land in session")
	}

	root := filepath.Join("..", "..")
	found := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench is its own module; dot-directories hold no source.
			if path != root && (d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range traceCall.FindAllSubmatch(src, -1) {
			name := string(m[1]) + string(m[2])
			found++
			if !listed[name] {
				t.Errorf("%s emits %q, which tracedNames does not list", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found < 40 {
		t.Fatalf("source walk found only %d trace call sites: pattern or layout drifted", found)
	}
}

// TestEventSize pins the value the hot path copies: the engine builds
// one per trace call and the flight ring holds DefaultFlightCapacity of
// them.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 88 {
		t.Fatalf("Event is %d bytes, want 88", got)
	}
}
