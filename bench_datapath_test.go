// Loopback datapath benchmark (DESIGN.md §16): goodput of a real TCPLS
// session over 127.0.0.1, the headline MB/s number of BENCH_datapath.json.
// One op pushes 8 MiB through Stream.Write → seal → writev → kernel →
// batched read → open into a pooled buffer → Stream.Read discard.
//
//	go test -bench=DatapathLoopback -benchmem
package tcpls_test

import (
	"context"
	"io"
	"testing"

	"tcpls"
)

const datapathLoopbackBytes = 8 << 20

func benchDatapathLoopback(b *testing.B, cfg func(*tcpls.Config)) {
	cert, err := tcpls.NewCertificate("bench.tcpls")
	if err != nil {
		b.Fatal(err)
	}
	scfg := &tcpls.Config{Certificate: cert, Telemetry: tcpls.TelemetryConfig{Disabled: true}}
	ccfg := &tcpls.Config{ServerName: "bench.tcpls", Telemetry: tcpls.TelemetryConfig{Disabled: true}}
	cfg(scfg)
	cfg(ccfg)
	ln, err := tcpls.Listen("tcp", "127.0.0.1:0", scfg)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			sess, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer sess.Close()
				for {
					st, err := sess.AcceptStream(context.Background())
					if err != nil {
						return
					}
					go io.Copy(io.Discard, st)
				}
			}()
		}
	}()

	sess, err := tcpls.Dial("tcp", ln.Addr().String(), ccfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 1<<20)

	b.SetBytes(datapathLoopbackBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for sent := 0; sent < datapathLoopbackBytes; sent += len(chunk) {
			if _, err := st.Write(chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if records := sess.Stats().RecordsSent; b.Elapsed().Seconds() > 0 {
		b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
	}
}

func BenchmarkDatapathLoopback(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		benchDatapathLoopback(b, func(c *tcpls.Config) {})
	})
	b.Run("failover", func(b *testing.B) {
		benchDatapathLoopback(b, func(c *tcpls.Config) {
			c.EnableFailover = true
			// Unbounded retransmit budget: this measures raw goodput, and a
			// pipelined writer outruns the ack-paced trim at the default cap.
			c.MaxRetransmitBytes = -1
		})
	})
}
