package tcpls

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"tcpls/internal/driver"
)

// DialParallel implements the Happy-Eyeballs-style connection racing of
// the paper's §4.6 (Fig. 5): it starts TCP connections to every address
// concurrently, completes the TCPLS handshake on the first one to
// connect, and abandons the rest. Use it with a dual-stack server's IPv4
// and IPv6 addresses to always get the lower-latency family.
//
// timeout bounds the whole race, handshake included (zero means 30
// seconds); every connect is bounded by it, so the race needs no timer
// of its own. The losing sockets are closed as they connect, also after
// DialParallel has returned; no handshake runs on them.
func DialParallel(network string, addrs []string, timeout time.Duration, cfg *Config) (*Session, error) {
	if len(addrs) == 0 {
		return nil, errors.New("tcpls: DialParallel needs at least one address")
	}
	if cfg != nil {
		if err := cfg.validateScheduler(); err != nil {
			return nil, err
		}
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	results := make(chan dialResult, len(addrs))
	for _, addr := range addrs {
		go func(addr string) {
			nc, err := dialTCP(network, addr, deadline)
			results <- dialResult{nc, addr, err}
		}(addr)
	}

	var errs []string
	for racing := len(addrs); racing > 0; racing-- {
		r := <-results
		if r.err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", r.addr, r.err))
			continue
		}
		go closeLosers(results, racing-1)
		// The winner's handshake runs under what is left of the race's
		// deadline: the driver's, which closes its socket then.
		sess, err := newClient(cfg, deadline, func(*Session, *driver.Conn) (net.Conn, error) { return r.nc, nil })
		if err != nil {
			return nil, fmt.Errorf("tcpls: handshake with %s: %w", r.addr, err)
		}
		return sess, nil
	}
	return nil, fmt.Errorf("tcpls: all addresses failed: %s", strings.Join(errs, "; "))
}

// dialResult is one address's connect outcome.
type dialResult struct {
	nc   net.Conn
	addr string
	err  error
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
