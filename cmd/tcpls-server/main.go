// Command tcpls-server runs the production TCPLS server runtime
// (internal/server): thousands of concurrent sessions behind
// accept-edge admission control, a process memory budget, and graceful
// drain on SIGINT/SIGTERM. Every stream is echoed back to its client.
//
//	tcpls-server -listen :4443
//
// Client mode, against a tcpls-server (the CI smokes' traffic):
//
//	tcpls-server -connect host:4443 -bytes 60000000 [-failover]
//	tcpls-server -connect host:4443 -ticket-file ticket.json
//
// The first pushes -bytes through one echo stream and checks the echo
// byte for byte. The second is the resumption probe: its first run
// saves a ticket, the next resumes with 0-RTT (see resumeProbe).
//
// Observability:
//
//	tcpls-server -metrics-addr 127.0.0.1:9090
//	curl 127.0.0.1:9090/metrics       # tcpls_* and tcpls_server_* families
//	curl 127.0.0.1:9090/debug/tcpls   # live registry/budget/session state
//
// Load shedding:
//
//	-max-sessions 5000          cap registered sessions
//	-accept-rate 200            handshakes/sec token bucket
//	-memory-budget 268435456    shed when buffered memory nears 256 MiB
//	-max-handshakes-per-ip 32   concurrent handshakes from one IP
//	-join-rate-per-ip 10        cookie/join attempts per second per IP
//
// Resumption across restarts:
//
//	tcpls-server -ticket-key-file /var/lib/tcpls/ticket.keys \
//	             -ticket-key-pass "$TCPLS_TICKET_PASSPHRASE" \
//	             -ticket-rotate 1h
//
// The key file is created on first start and encrypted under the
// passphrase (flag, or the TCPLS_TICKET_PASSPHRASE environment
// variable). Tickets issued before a restart resume at 1-RTT against
// the restarted process; their 0-RTT offers are deliberately declined
// (the fresh process's anti-replay register has no memory of flights
// the old one accepted) and the early bytes fall back losslessly to
// 1-RTT. -ticket-rotate rolls the sealing key periodically: the
// previous generation stays accepted and its tickets are reissued on
// use, so rotation is invisible to clients.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"tcpls"
	"tcpls/internal/server"
)

var (
	listenFlag  = flag.String("listen", ":4443", "listen address")
	nameFlag    = flag.String("name", "server.tcpls", "server certificate name (with -connect: the name the client expects)")
	metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, /debug/tcpls, and /debug/pprof on this address")

	healthIv = flag.Duration("health-interval", 0, "self-diagnosis sampling tick (0 = 1s default; needs -metrics-addr)")
	qlogDir  = flag.String("qlog-dir", "", "write one qlog trace per session into this directory")

	failoverF = flag.Bool("failover", false, "enable failover (record acks)")
	hsTimeout = flag.Duration("handshake-timeout", 0, "per-connection handshake deadline (0 = 10s default, negative disables)")

	ticketKeyFile = flag.String("ticket-key-file", "", "persistent ticket-key file: resumption tickets survive restarts")
	ticketKeyPass = flag.String("ticket-key-pass", "", "passphrase for -ticket-key-file (default: $TCPLS_TICKET_PASSPHRASE)")
	ticketRotate  = flag.Duration("ticket-rotate", 0, "rotate the ticket key on this period (0 = never)")
	maxEarlyData  = flag.Int("max-early-data", 0, "0-RTT early-data budget in bytes (0 = 16 KiB default, negative refuses)")

	maxSessions  = flag.Int("max-sessions", 0, "cap concurrent sessions (0 = unlimited)")
	acceptRate   = flag.Float64("accept-rate", 0, "handshake admissions per second (0 = unlimited)")
	acceptBurst  = flag.Int("accept-burst", 0, "accept token-bucket depth (0 = rate)")
	memoryBudget = flag.Int64("memory-budget", 0, "process buffered-memory budget in bytes (0 = unlimited)")
	perIPHs      = flag.Int("max-handshakes-per-ip", 0, "concurrent handshakes per remote IP (0 = unlimited)")
	perIPJoins   = flag.Float64("join-rate-per-ip", 0, "join attempts per second per remote IP (0 = unlimited)")
	drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline before force-closing sessions")

	connectFlag = flag.String("connect", "", "run as a client of the echo server at this address instead of serving")
	bytesFlag   = flag.Int64("bytes", 1<<20, "with -connect: bytes to push through the echo")
	ticketFile  = flag.String("ticket-file", "", "with -connect: run the resumption probe, keeping its ticket in this file")
)

func main() {
	flag.Parse()
	if *connectFlag != "" {
		runClient(*connectFlag, &tcpls.Config{ServerName: *nameFlag, EnableFailover: *failoverF}, *bytesFlag, *ticketFile)
		return
	}

	handler := server.Echo()
	cert, err := tcpls.NewCertificate(*nameFlag)
	if err != nil {
		log.Fatal(err)
	}
	tcfg := &tcpls.Config{
		Certificate:      cert,
		EnableFailover:   *failoverF,
		HandshakeTimeout: *hsTimeout,
		MaxEarlyData:     *maxEarlyData,
	}
	pass := *ticketKeyPass
	if pass == "" {
		pass = os.Getenv("TCPLS_TICKET_PASSPHRASE")
	}
	if *ticketKeyFile != "" && pass == "" {
		log.Fatal("-ticket-key-file requires -ticket-key-pass or $TCPLS_TICKET_PASSPHRASE")
	}
	if *metricsAddr != "" {
		closer, err := tcpls.ServeTelemetry(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer closer.Close()
		tcfg.Telemetry.Addr = *metricsAddr
		log.Printf("telemetry on http://%s/metrics, /debug/tcpls, and /debug/tcpls/health", *metricsAddr)
	}
	tcfg.Health.Interval = *healthIv
	if *qlogDir != "" {
		// Per-session qlog artifacts: wrap the handler so every accepted
		// session streams its trace (health verdicts included) to its own
		// file; the sink flushes when the session closes.
		if err := os.MkdirAll(*qlogDir, 0o755); err != nil {
			log.Fatal(err)
		}
		inner := handler
		var qlogSeq atomic.Uint64
		handler = func(s *tcpls.Session) {
			name := filepath.Join(*qlogDir, fmt.Sprintf("sess-%d.qlog", qlogSeq.Add(1)))
			if f, err := os.Create(name); err == nil {
				s.TraceJSON(f)
			} else {
				log.Printf("tcpls-server: qlog %s: %v", name, err)
			}
			inner(s)
		}
	}

	srv := server.New(server.Config{
		TCPLS: tcfg,
		Limits: server.Limits{
			AcceptRate:         *acceptRate,
			AcceptBurst:        *acceptBurst,
			MaxHandshakesPerIP: *perIPHs,
			JoinRatePerIP:      *perIPJoins,
			MaxSessions:        *maxSessions,
		},
		MemoryBudget:        *memoryBudget,
		Handler:             handler,
		TicketKeyFile:       *ticketKeyFile,
		TicketKeyPassphrase: []byte(pass),
		TicketRotate:        *ticketRotate,
	})

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe("tcp", *listenFlag) }()
	log.Printf("tcpls-server: echo on %s", *listenFlag)

	select {
	case err := <-errCh:
		if err != nil {
			log.Fatal(err)
		}
		return
	case sig := <-sigs:
		log.Printf("tcpls-server: %v — draining (deadline %s)", sig, *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("tcpls-server: drain deadline hit, sessions force-closed: %v", err)
	} else {
		log.Printf("tcpls-server: drained cleanly")
	}
	<-errCh
}
