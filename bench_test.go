// Benchmarks regenerating the paper's tables and figures, plus the
// ablations DESIGN.md calls out; Fig. 7's engine bars are bench/'s
// ladder rungs. Run with:
//
//	go test -bench=. -benchmem
//
// Conventions: BenchmarkFigN* benches report the figure's headline
// quantity as a custom metric (Gbps, recovery seconds, completion
// seconds) so `go test -bench` output reads like the paper's results
// table. Time-domain figures run one full simulation per iteration.
package tcpls_test

import (
	"testing"
	"time"

	"tcpls/internal/cc"
	"tcpls/internal/ebpfvm"
	"tcpls/internal/experiments"
	"tcpls/internal/miniquic"
	"tcpls/internal/netem"
)

// --- Table 1 ---

func BenchmarkTable1Services(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 7 {
			b.Fatal("table generation failed")
		}
	}
}

// --- Fig. 7: the QUIC bars (the engine bars are bench/'s ladder) ---

func benchQUIC(b *testing.B, cfg miniquic.Config) {
	p, err := miniquic.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Transfer(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Quicly(b *testing.B) { benchQUIC(b, miniquic.Quicly) }
func BenchmarkFig7MsQuic(b *testing.B) { benchQUIC(b, miniquic.MsQuic) }
func BenchmarkFig7Mvfst(b *testing.B)  { benchQUIC(b, miniquic.Mvfst) }

// --- Figs. 8-13: one simulation per iteration ---

func BenchmarkFig8Failover(b *testing.B) {
	var rec time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8("blackhole")
		if err != nil {
			b.Fatal(err)
		}
		rec = r.TCPLSRecovery
	}
	b.ReportMetric(rec.Seconds(), "recovery-s")
}

func BenchmarkFig9RepeatedOutages(b *testing.B) {
	var done time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		done = r.TCPLSDone
	}
	b.ReportMetric(done.Seconds(), "tcpls-done-s")
}

func BenchmarkFig10Migration(b *testing.B) {
	var done time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		done = r.Done
	}
	b.ReportMetric(done.Seconds(), "done-s")
}

func BenchmarkFig11Aggregation(b *testing.B) {
	var mbps float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(16368)
		if err != nil {
			b.Fatal(err)
		}
		mbps = r.TCPLS.MeanBetween(9*time.Second, 16*time.Second)
	}
	b.ReportMetric(mbps, "agg-Mbps")
}

func BenchmarkFig13SmallRecords(b *testing.B) {
	var mbps float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(1500)
		if err != nil {
			b.Fatal(err)
		}
		mbps = r.TCPLS.MeanBetween(9*time.Second, 16*time.Second)
	}
	b.ReportMetric(mbps, "agg-Mbps")
}

func BenchmarkFig12EbpfCC(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		if !r.Swapped {
			b.Fatal("program not attached")
		}
		share = r.Vegas.MeanBetween(40*time.Second, 50*time.Second)
	}
	b.ReportMetric(share, "post-swap-Mbps")
}

// --- Ablations (DESIGN.md §5) ---

// Path-scheduler ablation: the metrics-driven schedulers against
// round-robin over two netem paths with 10x RTT asymmetry (2 ms vs
// 20 ms one-way at equal 40 Mbps rate). Each iteration is one full
// coupled download through real loopback TCP, so the goodput metric
// reflects handshake, ACK-driven metric learning, and reordering cost.
func BenchmarkPathSchedulers(b *testing.B) {
	fast := netem.Profile{RateBps: 40_000_000, Delay: 2 * time.Millisecond}
	slow := netem.Profile{RateBps: 40_000_000, Delay: 20 * time.Millisecond}
	const total = 1 << 20
	for _, name := range []string{"roundrobin", "lowrtt", "rate"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(total)
			var bps float64
			for i := 0; i < b.N; i++ {
				bps = schedTransfer(b, name, total, fast, slow)
			}
			b.ReportMetric(bps/1e6, "goodput-Mbps")
		})
	}
}

// VM-hosted vs native congestion controller (the §4.4 substitution's
// overhead).
func BenchmarkCCNativeVsBytecode(b *testing.B) {
	b.Run("native-cubic", func(b *testing.B) {
		a := cc.NewCubic(cc.DefaultMSS)
		for i := 0; i < b.N; i++ {
			a.OnAck(cc.DefaultMSS, 20*time.Millisecond, time.Duration(i)*time.Millisecond)
		}
	})
	b.Run("bytecode-cubic", func(b *testing.B) {
		p, err := ebpfvm.NewCCProgram("cubic", ebpfvm.Program("cubic"), cc.DefaultMSS)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			p.OnAck(cc.DefaultMSS, 20*time.Millisecond, time.Duration(i)*time.Millisecond)
		}
		if p.Err() != nil {
			b.Fatal(p.Err())
		}
	})
}
