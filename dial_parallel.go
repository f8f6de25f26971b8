package tcpls

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"
)

// DialParallel implements the Happy-Eyeballs-style connection racing of
// the paper's §4.6 (Fig. 5): it starts TCP connections to every address
// concurrently, completes the TCPLS handshake on the first one to
// connect, and abandons the rest. Use it with a dual-stack server's IPv4
// and IPv6 addresses to always get the lower-latency family.
//
// timeout bounds the whole race, handshake included (zero means 30
// seconds). The losing sockets are closed as they connect, also after
// DialParallel has returned; no handshake runs on them.
func DialParallel(network string, addrs []string, timeout time.Duration, cfg *Config) (*Session, error) {
	if len(addrs) == 0 {
		return nil, errors.New("tcpls: DialParallel needs at least one address")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	results := make(chan dialResult, len(addrs))
	for _, addr := range addrs {
		go func(addr string) {
			nc, err := net.DialTimeout(network, addr, timeout)
			results <- dialResult{nc, addr, err}
		}(addr)
	}

	expired := time.NewTimer(timeout)
	defer expired.Stop()
	var errs []string
	for racing := len(addrs); racing > 0; racing-- {
		select {
		case r := <-results:
			if r.err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", r.addr, r.err))
				continue
			}
			go closeLosers(results, racing-1)
			return handshakeBy(r, deadline, timeout, cfg)
		case <-expired.C:
			go closeLosers(results, racing)
			return nil, fmt.Errorf("tcpls: DialParallel timed out after %v (failures: %s)",
				timeout, strings.Join(errs, "; "))
		}
	}
	return nil, fmt.Errorf("tcpls: all addresses failed: %s", strings.Join(errs, "; "))
}

// dialResult is one address's connect outcome.
type dialResult struct {
	nc   net.Conn
	addr string
	err  error
}

// handshakeBy runs the client handshake on the race's winner, closing
// its socket at deadline if the handshake has not finished by then.
func handshakeBy(r dialResult, deadline time.Time, timeout time.Duration, cfg *Config) (*Session, error) {
	cut := time.AfterFunc(time.Until(deadline), func() { r.nc.Close() })
	sess, err := Client(r.nc, cfg)
	if !cut.Stop() {
		if err == nil {
			sess.Close()
		}
		return nil, fmt.Errorf("tcpls: DialParallel timed out after %v in the handshake with %s", timeout, r.addr)
	}
	if err != nil {
		return nil, fmt.Errorf("tcpls: handshake with %s: %w", r.addr, err)
	}
	return sess, nil
}

// closeLosers closes the sockets of the n dials still racing as they
// connect.
func closeLosers(results <-chan dialResult, n int) {
	for ; n > 0; n-- {
		if r := <-results; r.nc != nil {
			r.nc.Close()
		}
	}
}
