package server

import (
	"context"
	"io"
	"sync"

	"tcpls"
)

// Echo returns a handler that echoes every stream back to the client:
// the iperf-style workload of the paper's throughput experiments.
// Each stream is copied on its own goroutine until the client sends
// FIN, then half-closed back.
func Echo() Handler {
	return func(sess *tcpls.Session) {
		var inflight sync.WaitGroup
		defer inflight.Wait()
		for {
			st, err := sess.AcceptStream(context.Background())
			if err != nil {
				return
			}
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				defer st.Close()
				io.Copy(st, st)
			}()
		}
	}
}
