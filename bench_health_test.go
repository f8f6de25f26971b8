// Health-engine overhead benchmark (DESIGN.md §15): the continuous
// self-diagnosis claims <1% goodput cost at the default 1s sampling
// tick. BenchmarkHealthOverhead runs the same loopback transfer with
// diagnosis off, at the production tick, and at a 20ms tick (50× the
// default rate) so the scaling is visible in one run:
//
//	go test -bench=HealthOverhead -benchmem
package tcpls_test

import (
	"context"
	"io"
	"testing"
	"time"

	"tcpls"
)

const telemetryBenchBytes = 8 << 20

// benchHealthTransfer pushes telemetryBenchBytes per iteration through
// a real loopback session with telemetry on (the diagnosis engine
// samples through it) and the health config under test.
func benchHealthTransfer(b *testing.B, hc tcpls.HealthConfig) {
	cert, err := tcpls.NewCertificate("bench.tcpls")
	if err != nil {
		b.Fatal(err)
	}
	ln, err := tcpls.Listen("tcp", "127.0.0.1:0", &tcpls.Config{
		Certificate: cert,
		Health:      hc,
	})
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

	sess, err := tcpls.Dial("tcp", ln.Addr().String(), &tcpls.Config{
		ServerName: "bench.tcpls",
		Health:     hc,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 1<<20)

	b.SetBytes(telemetryBenchBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for sent := 0; sent < telemetryBenchBytes; sent += len(chunk) {
			if _, err := st.Write(chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHealthOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchHealthTransfer(b, tcpls.HealthConfig{Disabled: true})
	})
	b.Run("on-1s", func(b *testing.B) {
		benchHealthTransfer(b, tcpls.HealthConfig{Interval: time.Second})
	})
	b.Run("on-20ms", func(b *testing.B) {
		benchHealthTransfer(b, tcpls.HealthConfig{Interval: 20 * time.Millisecond})
	})
}
