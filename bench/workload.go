package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sync"
	"time"

	"tcpls"
	"tcpls/internal/server"
	"tcpls/internal/telemetry"
)

const serverName = "bench.tcpls"

// variant is what a workload's name adds to the Config a user gets by
// default. quiet and plainTLS exist only for the ladder's comparison
// rungs (telemetry.on_off_*, ladder.tcpls_over_tls).
type variant struct {
	failover2p bool // EnableFailover, a joined second path, two coupled streams
	plainTLS   bool // DisableTCPLS
	quiet      bool // telemetry, flight recorder and health off
}

func (v variant) apply(c *tcpls.Config) {
	c.EnableFailover = v.failover2p
	c.DisableTCPLS = v.plainTLS
	if v.failover2p {
		// The one departure from the default Config, and from the issue's
		// "default buffer caps"; drop it once the defect is fixed. With
		// the default caps a sustained coupled writer on loopback outruns
		// the ack-paced trim of the 16 MiB retransmit budget within a few
		// hundred MiB. WriteCoupled then returns ErrRetransmitBudget;
		// retried as the back-pressure it is documented to be, the parked
		// stream's gap fills the receiver's reorder heap, the reorder cap
		// fails a healthy path over, the replayed records fail to decrypt
		// (Stats.FailedDecrypts equals the records replayed) and the
		// transfer never completes. The driver accepts no workload on
		// which operations fail, so the three caps are lifted, as
		// bench_datapath_test.go lifts the first; README.md, Defects.
		c.MaxRetransmitBytes = -1
		c.MaxReorderBytes, c.MaxReorderRecords = -1, -1
	}
	if v.quiet {
		c.Telemetry = tcpls.TelemetryConfig{Disabled: true, FlightCapacity: -1}
		c.Health = tcpls.HealthConfig{Disabled: true}
	}
}

// params is one run's shape.
type params struct {
	seed    uint64
	measure time.Duration // measured time, shared out among the instances and cut into slices
	warmup  time.Duration // timed warm-up, shared out likewise; the last part of setup_s
	slices  int
	setups  int  // instances: each is set up, timed, warmed up and measured for its share
	trace   bool // record spans in every other slice of each instance
	corrupt bool // smoke test: damage one operation's payload and expect it counted as failed
}

// workload is one of the benchmark's fixed set of inputs.
type workload struct {
	name    string
	why     string
	clients string
	variant variant
	start   func(p params, v variant) (instance, error)
}

var workloads = []workload{
	{
		name:    "bulk_1s",
		why:     "1 session, 1 stream, 1 MiB blocks into a sink: AEAD, engine framing and the wrapper's lock, writeCh hop and writev do the work; handshake and admission do none",
		clients: "1 closed-loop writer, 1 TCP connection",
		start:   startBulk,
	},
	{
		name:    "bulk_failover_2p",
		why:     "same bytes over two coupled streams on two paths with failover on: acks, retransmit copies, scheduler picks and the reorder heap join the same layers",
		clients: "1 closed-loop writer, 2 TCP connections",
		variant: variant{failover2p: true},
		start:   startBulk,
	},
	{
		name:    "rpc_small",
		why:     "2 sessions echoing seeded 64 B-1 KiB requests: per-record fixed cost (locks, goroutine hops, wakeups, syscalls) dominates and AEAD bytes are negligible",
		clients: "2 closed-loop clients, 1 session and 1 TCP connection each",
		start:   startRPC,
	},
	{
		name:    "connect_churn",
		why:     "Dial, 1 KiB echo, Close with full, resumed and 0-RTT handshakes in a seeded 1:1:1 order: handshake, resume, server admission and session set-up/teardown only",
		clients: "1 closed-loop client, 1 TCP connection at a time",
		start:   startChurn,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one set-up of a workload: server, sessions and clients.
type instance interface {
	// warm is the fixed-work part of set-up: a set number of operations
	// that fill pools and queues.
	warm() error
	// run drives the closed-loop clients until ph says stop.
	run(ph *phase)
	// settle waits until everything written has reached its reader.
	settle()
	// finish checks the final counts and tears everything down.
	finish() error
	logs() *runLogs
	// delivered is the reader's own log of payload, valid after settle;
	// nil where each operation's reply is the delivery.
	delivered() []delivery
}

// opSample is one operation as a client saw it.
type opSample struct {
	end    int64 // ns since the instance's epoch
	lat    int64 // ns
	bytes  int32 // payload bytes this operation delivered to its reader
	kind   uint8
	failed bool
}

// delivery is payload reaching the reader, logged where it is read.
type delivery struct {
	t     int64
	bytes int32
}

// client is the state of one closed-loop client goroutine.
type client struct {
	ops []opSample
	tr  *tracer
}

// record logs an operation that began at t0 and whose latency ended at
// end.
func (c *client) record(epoch, t0, end time.Time, bytes int, kind uint8, failed bool) {
	c.ops = append(c.ops, opSample{
		end: int64(end.Sub(epoch)), lat: int64(end.Sub(t0)),
		bytes: int32(bytes), kind: kind, failed: failed,
	})
}

// runLogs is everything an instance measured, read after its clients
// have stopped.
type runLogs struct {
	epoch      time.Time
	clients    []*client
	sinkTracer *tracer
	// failedOutsideOps counts failures no client operation carries: a
	// block the sink found damaged, a final byte count that is off.
	failedOutsideOps int
	firstErr         error // what stopped a client early, if anything did
	earlyRetries     int   // connect_churn: 0-RTT requests offered again at 1-RTT
	stats            engineCounts
	registryPeak     int
	rejects          float64
}

// engineCounts are Session.Stats() deltas summed over the sessions a run
// used, sender and receiver side.
type engineCounts struct {
	recordsSent, acksReceived, retransmits uint64
	recordsReceived, dupDropped            uint64
	payload                                uint64 // bytes the senders' applications wrote
}

func (e *engineCounts) add(o engineCounts) {
	e.recordsSent += o.recordsSent
	e.acksReceived += o.acksReceived
	e.retransmits += o.retransmits
	e.recordsReceived += o.recordsReceived
	e.dupDropped += o.dupDropped
	e.payload += o.payload
}

func (e *engineCounts) addSender(s tcpls.Stats) {
	e.recordsSent += s.RecordsSent
	e.acksReceived += s.AcksReceived
	e.retransmits += s.Retransmits
}

func (e *engineCounts) addReceiver(s tcpls.Stats) {
	e.recordsReceived += s.RecordsReceived
	e.dupDropped += s.DupRecordsDropped
}

// phase tells the clients when to stop and which operations to trace.
type phase struct {
	start  time.Time
	until  time.Time // zero: stop after maxOps operations per client
	maxOps int
	slice  time.Duration
	trace  bool
}

func (ph *phase) done(now time.Time, n int) bool {
	if ph.until.IsZero() {
		return n >= ph.maxOps
	}
	return !now.Before(ph.until)
}

// measured reports whether this is the measured window, not a warm-up.
func (ph *phase) measured() bool { return ph.slice > 0 }

// traced reports whether an operation starting at now records spans:
// in a traced run, every other slice does, so that the slices between
// them give the untraced rate of the very same instance.
func (ph *phase) traced(now time.Time) bool {
	return ph.trace && ph.slice > 0 && int(now.Sub(ph.start)/ph.slice)%2 == 1
}

// serverEnv is an internal/server instance on a loopback port.
type serverEnv struct {
	srv   *server.Server
	addr  string
	reg   *telemetry.Registry
	root  ed25519.PublicKey
	serve chan error
}

func startServer(v variant, h server.Handler) (*serverEnv, error) {
	cert, err := tcpls.NewCertificate(serverName)
	if err != nil {
		return nil, err
	}
	tc := &tcpls.Config{Certificate: cert}
	v.apply(tc)
	e := &serverEnv{reg: telemetry.NewRegistry(), root: cert.Public, serve: make(chan error, 1)}
	e.srv = server.New(server.Config{TCPLS: tc, Handler: h, Name: "bench", MetricsRegistry: e.reg})
	ln, err := e.srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = ln.Addr().String()
	go func() { e.serve <- e.srv.Serve(ln) }()
	return e, nil
}

// clientConfig is the Config a user would write: the server's name and
// its pinned key, plus the variant.
func (e *serverEnv) clientConfig(v variant) *tcpls.Config {
	c := &tcpls.Config{ServerName: serverName, RootKeys: []ed25519.PublicKey{e.root}}
	v.apply(c)
	return c
}

func (e *serverEnv) rejects() float64 {
	v, _ := e.reg.SumValues("tcpls_server_rejected_total")
	return v
}

// stop drains the server and waits for its accept loop and handlers.
func (e *serverEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.serve; err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

// each runs fn once per client, each on its own goroutine, and waits.
func each(clients []*client, fn func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			fn(i, c)
		}(i, c)
	}
	wg.Wait()
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
