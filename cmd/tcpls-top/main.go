// Command tcpls-top is the live operator view: it polls a TCPLS
// telemetry endpoint (/debug/tcpls for conn/stream state,
// /debug/tcpls/health for the continuous self-diagnosis) and renders a
// per-session, per-path table in the terminal — goodput, RTT, reorder
// depth, retransmit ratio, and the health verdicts the monitor has
// raised — plus the process-wide rollup row (resumption and 0-RTT
// counters, ticket-rotation failures, admission pressure) and one line
// per server runtime (sessions, memory, budget, draining).
//
// Usage:
//
//	tcpls-top -addr 127.0.0.1:9090              # live view, 1s refresh
//	tcpls-top -addr 127.0.0.1:9090 -once        # one plain frame (CI/scripts)
//	tcpls-top -addr 127.0.0.1:9090 -interval 250ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"tcpls"
	"tcpls/internal/health"
)

var (
	addrFlag     = flag.String("addr", "127.0.0.1:9090", "telemetry endpoint (host:port of Config.Telemetry.Addr)")
	intervalFlag = flag.Duration("interval", time.Second, "refresh period")
	onceFlag     = flag.Bool("once", false, "print one frame without clearing the screen and exit")
)

// debugPage is /debug/tcpls: one tcpls.Snapshot per live session, and
// under each "server:<name>" key the entry of an internal/server runtime.
type debugPage struct {
	Sessions map[string]json.RawMessage `json:"sessions"`
}

const serverKeyPrefix = "server:"

type serverEntry struct {
	Sessions    int   `json:"sessions"`
	MemoryBytes int64 `json:"memory_bytes"`
	BudgetUsed  int64 `json:"budget_used_bytes"`
	BudgetLimit int64 `json:"budget_limit_bytes"`
	BudgetHot   bool  `json:"budget_hot"`
	Draining    bool  `json:"draining"`
}

type healthPage struct {
	Health map[string]health.Status `json:"health"`
}

func main() {
	flag.Parse()
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		frame, err := buildFrame(client, *addrFlag)
		if err != nil {
			if *onceFlag {
				fmt.Fprintln(os.Stderr, "tcpls-top:", err)
				os.Exit(1)
			}
			frame = fmt.Sprintf("tcpls-top: %v (retrying every %v)\n", err, *intervalFlag)
		}
		if *onceFlag {
			fmt.Print(frame)
			return
		}
		// Clear screen + home, then the frame — one write per refresh so
		// the terminal never shows a half-drawn table.
		fmt.Print("\x1b[2J\x1b[H" + frame)
		time.Sleep(*intervalFlag)
	}
}

func get(client *http.Client, addr, path string, into any) error {
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func buildFrame(client *http.Client, addr string) (string, error) {
	var dbg debugPage
	var hp healthPage
	if err := get(client, addr, "/debug/tcpls", &dbg); err != nil {
		return "", err
	}
	if err := get(client, addr, "/debug/tcpls/health", &hp); err != nil {
		return "", err
	}

	keys := make([]string, 0, len(dbg.Sessions))
	for k := range dbg.Sessions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var servers []string
	sessions := keys[:0]
	for _, k := range keys {
		if strings.HasPrefix(k, serverKeyPrefix) {
			servers = append(servers, k)
		} else {
			sessions = append(sessions, k)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "tcpls-top  %s  %s  sessions: %d\n",
		addr, time.Now().Format("15:04:05"), len(sessions))

	if proc, ok := hp.Health["process"]; ok {
		writeProcess(&b, proc)
	}
	for _, k := range servers {
		var e serverEntry
		if err := json.Unmarshal(dbg.Sessions[k], &e); err != nil {
			return "", fmt.Errorf("/debug/tcpls %s: %w", k, err)
		}
		writeServer(&b, k, e)
	}

	if len(sessions) > 0 {
		fmt.Fprintf(&b, "\n%-22s %-6s %-9s %9s %9s %6s %8s %7s %8s %5s %4s\n",
			"SESSION", "ROLE", "STATE", "TX/s", "RX/s", "RETX%", "RTT", "REORD", "MEM", "CONNS", "STRM")
	}
	for _, k := range sessions {
		var snap tcpls.Snapshot
		if err := json.Unmarshal(dbg.Sessions[k], &snap); err != nil {
			return "", fmt.Errorf("/debug/tcpls %s: %w", k, err)
		}
		hs, haveHealth := hp.Health[k]
		writeSession(&b, k, snap, hs, haveHealth)
	}
	return b.String(), nil
}

// writeServer renders one server runtime's line: what it holds against
// its budget, and whether it is shedding or draining.
func writeServer(b *strings.Builder, key string, e serverEntry) {
	limit := "unlimited"
	if e.BudgetLimit > 0 {
		limit = fmtBytes(e.BudgetLimit)
	}
	fmt.Fprintf(b, "%s  sessions %d  mem %s  budget %s/%s", key, e.Sessions,
		fmtBytes(e.MemoryBytes), fmtBytes(e.BudgetUsed), limit)
	if e.BudgetHot {
		b.WriteString("  HOT")
	}
	if e.Draining {
		b.WriteString("  DRAINING")
	}
	fmt.Fprintln(b)
}

// writeProcess renders the process monitor's row and its operator
// rollup: the resumption/0-RTT/ticket-rotation and admission families a
// fleet operator watches first.
func writeProcess(b *strings.Builder, st health.Status) {
	state := "healthy"
	if !st.Healthy {
		names := make([]string, 0, len(st.Active))
		for _, v := range st.Active {
			names = append(names, v.Name)
		}
		state = strings.Join(names, ",")
	}
	fmt.Fprintf(b, "process: %s", state)
	r := st.Rollup
	if len(r) > 0 {
		fmt.Fprintf(b, "  sessions %d  mem %s", int64(r["tcpls_server_sessions"]),
			fmtBytes(int64(r["tcpls_server_memory_bytes"])))
		fmt.Fprintf(b, "\n  resume %d/%d acc/rej  0rtt %d/%d acc/rej (%s)  join-fastpath %d  replay-entries %d",
			int64(r["tcpls_resume_accepted_total"]), int64(r["tcpls_resume_rejected_total"]),
			int64(r["tcpls_early_data_accepted_total"]), int64(r["tcpls_early_data_rejected_total"]),
			fmtBytes(int64(r["tcpls_early_data_bytes_total"])),
			int64(r["tcpls_join_fastpath_total"]), int64(r["tcpls_replay_entries"]))
		fmt.Fprintf(b, "\n  rotate-failures %d  admission %d/%d acc/rej",
			int64(r["tcpls_ticket_rotate_failures_total"]),
			int64(r["tcpls_server_accepted_total"]), int64(r["tcpls_server_rejected_total"]))
	}
	fmt.Fprintln(b)
}

func writeSession(b *strings.Builder, key string, snap tcpls.Snapshot, hs health.Status, haveHealth bool) {
	state := "-"
	var txBps, rxBps, retx, rttUS, reord float64
	if haveHealth {
		state = "healthy"
		if !hs.Healthy {
			names := make([]string, 0, len(hs.Active))
			for _, v := range hs.Active {
				names = append(names, v.Name)
			}
			state = strings.Join(names, ",")
		}
		txBps, rxBps = hs.GoodputTxBps, hs.GoodputRxBps
		retx = hs.RetransmitRatio * 100
		rttUS = hs.AckRTTUS
		reord = hs.ReorderDepth
	}
	fmt.Fprintf(b, "%-22s %-6s %-9s %9s %9s %5.1f%% %8s %7.0f %8s %5d %4d\n",
		key, snap.Role, state,
		fmtBps(txBps), fmtBps(rxBps), retx,
		fmtUS(rttUS), reord, fmtBytes(int64(snap.MemoryBytes)),
		len(snap.Conns), len(snap.Streams))

	// Per-path subrows: join the debug conn table (scheduler view) with
	// the health monitor's per-path goodput rings.
	pathTx := map[uint32]float64{}
	if haveHealth {
		for _, p := range hs.Paths {
			pathTx[p.Conn] = p.GoodputTxBps
		}
	}
	for _, c := range snap.Conns {
		if c.Closed {
			continue
		}
		flags := ""
		if c.Failed {
			flags = " FAILED"
		}
		if c.RecvPaused {
			flags += " paused"
		}
		fmt.Fprintf(b, "  conn %-4d %9s tx  srtt %-8s rate %9s  inflight %-8s%s\n",
			c.ID, fmtBps(pathTx[c.ID]), fmtUS(float64(c.SRTTUS)),
			fmtBps(c.DeliveryRate), fmtBytes(int64(c.InFlight)), flags)
	}
}

// fmtBps humanizes a bytes-per-second rate.
func fmtBps(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fGB/s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fMB/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fKB/s", v/1e3)
	default:
		return fmt.Sprintf("%.0fB/s", v)
	}
}

func fmtBytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}

func fmtUS(us float64) string {
	if us <= 0 {
		return "-"
	}
	return (time.Duration(us) * time.Microsecond).Round(10 * time.Microsecond).String()
}
