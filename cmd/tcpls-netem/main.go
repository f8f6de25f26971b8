// Command tcpls-netem runs a standalone fault-injection TCP relay
// (internal/netem) between a client and a server, driven by faults on
// stdin — the shell-scriptable harness the CI health-smoke job uses to
// stall a live transfer and watch the self-diagnosis react.
//
// Usage:
//
//	tcpls-netem -connect 127.0.0.1:4443
//
// The relay's dialable address is printed alone on the first stdout
// line; point the client at it. Then each stdin line is one fault of
// internal/fault's vocabulary, applied at once: either a kind's name,
//
//	stall      freeze both directions (sockets stay open, nothing moves)
//	unstall    resume forwarding
//	blackhole  kill all connections and refuse new ones
//	restore    accept connections again
//	rst        abort every forwarded connection with a TCP RST
//
// or one fault as a JSON object, its "at" counted from the line's
// arrival — the lines tcpls-fleet prints for a shrunk schedule. "quit"
// closes the relay and exits. Each applied line is acknowledged with
// "ok <line>" on stdout; a kind the relay cannot express is refused by
// name on stderr and nothing of its line runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tcpls/internal/fault"
	"tcpls/internal/netem"
)

var (
	connectFlag = flag.String("connect", "", "target address to relay toward (required)")
	rateFlag    = flag.Int64("rate", 0, "per-direction rate limit in bits/s (0 = unlimited)")
	delayFlag   = flag.Duration("delay", 0, "one-way added latency per direction")
)

func main() {
	flag.Parse()
	if *connectFlag == "" {
		fmt.Fprintln(os.Stderr, "tcpls-netem: -connect is required")
		os.Exit(2)
	}
	prof := netem.Profile{RateBps: *rateFlag, Delay: *delayFlag}
	relay, err := netem.NewRelay(*connectFlag, prof, prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpls-netem:", err)
		os.Exit(1)
	}
	defer relay.Close()
	fmt.Println(relay.Addr())

	var pending []<-chan struct{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var f fault.Fault
		switch {
		case line == "":
			continue
		case line == "quit" || line == "exit":
			fmt.Println("ok quit")
			return
		case strings.HasPrefix(line, "{"):
			err = json.Unmarshal([]byte(line), &f)
		default:
			err = f.Kind.UnmarshalText([]byte(line))
		}
		var done <-chan struct{}
		if err == nil {
			done, err = relay.Run(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpls-netem:", err)
			continue
		}
		pending = append(pending, done)
		fmt.Println("ok " + line)
	}
	// Stdin closed (driver went away): run what is scheduled, linger
	// briefly so in-flight traffic drains, then exit via the deferred
	// Close.
	for _, done := range pending {
		<-done
	}
	time.Sleep(100 * time.Millisecond)
}
