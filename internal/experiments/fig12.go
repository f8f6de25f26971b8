package experiments

import (
	"time"

	"tcpls/internal/cc"
	"tcpls/internal/core"
	"tcpls/internal/ebpfvm"
	"tcpls/internal/sim"
	"tcpls/internal/simtcp"
	"tcpls/internal/simtcpls"
)

// Fig12Result is the eBPF congestion-controller exchange experiment
// (paper Fig. 12 / §5.6): a Vegas session saturates a 100 Mbps, 60 ms
// RTT link; a CUBIC session joins and starves it; the server then ships
// CUBIC bytecode over the first TCPLS session, the client verifies and
// attaches it, and the bandwidth share converges toward fairness. The
// convergence is slower than the paper's plot: the shipped bytecode has
// no HyStart, so its first slow start dies against the full queue and
// the share is rebuilt through CUBIC's cubic-function epochs
// (EXPERIMENTS.md discusses the deviation).
type Fig12Result struct {
	Vegas    Series // session 1 goodput (starts Vegas, becomes CUBIC)
	Cubic    Series // session 2 goodput
	SecondAt time.Duration
	SwapAt   time.Duration
	Swapped  bool // bytecode verified and attached
}

const (
	fig12Rate   = 100_000_000
	fig12Delay  = 30 * time.Millisecond // one-way: RTT 60ms
	fig12Queue  = 384 << 10
	fig12Second = 5 * time.Second
	fig12Swap   = 15 * time.Second
	fig12RunFor = 50 * time.Second
)

// Fig12 runs the congestion-controller exchange experiment.
func Fig12() (*Fig12Result, error) {
	s := sim.New()
	// One shared bottleneck link pair, both sessions' uploads traverse
	// the same queue.
	up := &sim.Link{Sim: s, RateBps: fig12Rate, Delay: fig12Delay, QueueBytes: fig12Queue}
	down := &sim.Link{Sim: s, RateBps: fig12Rate, Delay: fig12Delay, QueueBytes: fig12Queue}

	res := &Fig12Result{SecondAt: fig12Second, SwapAt: fig12Swap}

	type session struct {
		client, server *simtcpls.Endpoint
		received       uint64
		stream         uint32
		written        uint64
	}
	mkSession := func(ccName string, connID uint32, start time.Duration, sess *session) {
		s.At(start, func() {
			client, server := simtcpls.Pair(s, core.Config{})
			sess.client, sess.server = client, server
			server.OnEvent = func(ev core.Event) {
				if ev.Kind == core.EventStreamData {
					buf := make([]byte, 256<<10)
					for server.Sess.Readable(ev.Stream) > 0 {
						n, _ := server.Sess.Read(ev.Stream, buf)
						sess.received += uint64(n)
					}
				}
			}
			// The upload starts as the client's end of the handshake
			// ends, where its Dial would return.
			client.OnStart = func(uint32) {
				sid, err := client.Sess.CreateStream(0)
				if err != nil {
					panic(err)
				}
				sess.stream = sid
				// Paced upload: stay ~2 MiB ahead of delivery.
				chunk := make([]byte, 256<<10)
				var pace func()
				pace = func() {
					for sess.written < sess.received+(2<<20) {
						client.Write(sid, chunk)
						sess.written += uint64(len(chunk))
					}
					s.After(10*time.Millisecond, pace)
				}
				pace()
			}
			client.AddPath(&sim.Path{AtoB: up, BtoA: down}, 0, simtcp.Options{CC: ccName}, nil)
		})
	}

	var vegasSess, cubicSess session
	mkSession("vegas", 0, 0, &vegasSess)
	mkSession("cubic", 0, fig12Second, &cubicSess)

	// At the swap time the first session's server ships the CUBIC
	// program over the encrypted session; the client verifies it in the
	// VM and attaches it to the live connection (§4.4).
	s.At(fig12Swap, func() {
		prog := ebpfvm.Program("cubic")
		vegasSess.client.OnEvent = func(ev core.Event) {
			if ev.Kind == core.EventBPFCC {
				ccProg, err := ebpfvm.NewCCProgram("cubic-bpf", ev.Data, cc.DefaultMSS)
				if err != nil {
					panic("fig12: shipped program rejected: " + err.Error())
				}
				vegasSess.client.Conn(0).SetAlgorithm(ccProg)
				res.Swapped = true
			}
		}
		vegasSess.server.Sess.SendBPFCC(0, prog)
		vegasSess.server.Flush()
	})

	res.Vegas = Series{Label: "session1-vegas-then-cubic"}
	res.Cubic = Series{Label: "session2-cubic"}
	sample(s, &res.Vegas, sampleEvery, func() uint64 { return vegasSess.received })
	sample(s, &res.Cubic, sampleEvery, func() uint64 { return cubicSess.received })
	s.RunUntil(fig12RunFor)
	return res, nil
}
