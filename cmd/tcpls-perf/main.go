// Command tcpls-perf measures TCPLS bulk throughput over real TCP, the
// measurement application of the paper's §5.1 (memory-to-memory transfer
// over a TCPLS session).
//
// Server:  tcpls-perf -server -listen :4443
// Client:  tcpls-perf -connect host:4443 [-bytes 1073741824] [-streams 1]
//
//	[-failover] [-record 16368] [-plain-tls]
//
// The client opens the requested number of streams, pushes -bytes of
// data, and reports goodput. With -failover, record-level
// acknowledgments are enabled (the paper's Failover cost measurement).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"tcpls"
)

var (
	serverFlag  = flag.Bool("server", false, "run as server")
	listenFlag  = flag.String("listen", ":4443", "server listen address")
	connectFlag = flag.String("connect", "", "server address to connect to")
	bytesFlag   = flag.Int64("bytes", 1<<30, "bytes to transfer")
	streamsFlag = flag.Int("streams", 1, "parallel streams")
	failoverF   = flag.Bool("failover", false, "enable failover (record acks)")
	recordFlag  = flag.Int("record", 0, "max record payload bytes (0 = default 16368)")
	plainFlag   = flag.Bool("plain-tls", false, "disable TCPLS (plain TLS baseline)")
	nameFlag    = flag.String("name", "perf.tcpls", "server certificate name")
	metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address")

	resumeFlag = flag.Bool("resume", false, "benchmark session establishment: full vs resumed vs 0-RTT, join vs fast join")
	itersFlag  = flag.Int("iters", 25, "with -resume: loopback iterations per flow")
	outFlag    = flag.String("out", "BENCH_resume.json", "with -resume: result file")

	smokeFlag  = flag.Bool("resume-smoke", false, "resume smoke probe: save a ticket on first run, resume with 0-RTT on the next (see -ticket-file)")
	ticketFile = flag.String("ticket-file", "ticket.json", "with -resume-smoke: where the resumption ticket is stored")

	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the transfer to this file (client side)")
	allocStats = flag.Bool("allocstats", false, "report heap allocations across the transfer (datapath pool check: steady state should be ~0 allocs/MB)")
)

func main() {
	flag.Parse()
	if *resumeFlag {
		runResume(*itersFlag, *outFlag)
		return
	}
	if *smokeFlag {
		if *connectFlag == "" {
			fmt.Fprintln(os.Stderr, "-resume-smoke needs -connect")
			os.Exit(2)
		}
		runResumeSmoke(*connectFlag, *nameFlag, *ticketFile)
		return
	}
	cfg := &tcpls.Config{
		EnableFailover:   *failoverF,
		MaxRecordPayload: *recordFlag,
		DisableTCPLS:     *plainFlag,
		ServerName:       *nameFlag,
	}
	if *metricsAddr != "" {
		cfg.Telemetry.Addr = *metricsAddr
		// Hold the endpoint for the process lifetime regardless of
		// session churn.
		closer, err := tcpls.ServeTelemetry(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer closer.Close()
		log.Printf("telemetry on http://%s/metrics", *metricsAddr)
	}
	if *serverFlag {
		runServer(cfg)
		return
	}
	if *connectFlag == "" {
		fmt.Fprintln(os.Stderr, "need -server or -connect")
		os.Exit(2)
	}
	runClient(cfg)
}

func runServer(cfg *tcpls.Config) {
	cert, err := tcpls.NewCertificate(*nameFlag)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Certificate = cert
	ln, err := tcpls.Listen("tcp", *listenFlag, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("tcpls-perf server on %s (failover=%v plain=%v)", ln.Addr(), cfg.EnableFailover, cfg.DisableTCPLS)
	for {
		sess, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			defer sess.Close()
			for {
				st, err := sess.AcceptStream(context.Background())
				if err != nil {
					return
				}
				go func() {
					// Sink: count and discard.
					n, _ := io.Copy(io.Discard, st)
					log.Printf("stream %d: received %d bytes", st.ID(), n)
				}()
			}
		}()
	}
}

func runClient(cfg *tcpls.Config) {
	sess, err := tcpls.Dial("tcp", *connectFlag, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	perStream := *bytesFlag / int64(*streamsFlag)
	chunk := make([]byte, 1<<20)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	var memBefore runtime.MemStats
	if *allocStats {
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *streamsFlag; i++ {
		st, err := sess.OpenStream()
		if err != nil {
			log.Fatal(err)
		}
		// Drain what comes back: against an echo server a writer that
		// never reads fills both receive buffers, and the acks queued
		// behind the echo never arrive, so its send window never moves.
		go io.Copy(io.Discard, st)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sent int64
			for sent < perStream {
				n := int64(len(chunk))
				if sent+n > perStream {
					n = perStream - sent
				}
				if _, err := st.Write(chunk[:n]); err != nil {
					log.Fatalf("write: %v", err)
				}
				sent += n
			}
			st.Close()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := perStream * int64(*streamsFlag)
	fmt.Printf("%d bytes in %v: %.2f Gbps (%d streams, failover=%v)\n",
		total, elapsed, float64(total)*8/elapsed.Seconds()/1e9, *streamsFlag, cfg.EnableFailover)
	stats := sess.Stats()
	fmt.Printf("records sent=%d acks received=%d retransmits=%d\n",
		stats.RecordsSent, stats.AcksReceived, stats.Retransmits)
	if *allocStats {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		mallocs := memAfter.Mallocs - memBefore.Mallocs
		heap := memAfter.TotalAlloc - memBefore.TotalAlloc
		fmt.Printf("allocs=%d (%.1f/MB transferred) heap=%d B gcs=%d\n",
			mallocs, float64(mallocs)/(float64(total)/(1<<20)),
			heap, memAfter.NumGC-memBefore.NumGC)
	}
}
