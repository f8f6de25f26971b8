package tcpls

import (
	"context"
	"fmt"
	"time"

	"tcpls/internal/core"
)

// TCPOption is an encrypted TCP option received from the peer (§3.1).
type TCPOption struct {
	Conn  uint32
	Kind  uint8
	Value []byte
}

// OptUserTimeout is the TCP User Timeout option kind (RFC 5482).
const OptUserTimeout = core.OptUserTimeout

// SendTCPOption ships an encrypted TCP option to the peer.
func (s *Session) SendTCPOption(conn uint32, kind uint8, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.engine.SendTCPOption(conn, kind, value)
	s.drv.Flush()
	return err
}

// TCPOptions drains received encrypted TCP options.
func (s *Session) TCPOptions() []TCPOption {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.tcpOpts
	s.tcpOpts = nil
	return opts
}

// SendBPFCC ships an eBPF congestion-controller program to the peer
// (§4.4). The receiver retrieves it with ReceiveBPFCC.
func (s *Session) SendBPFCC(conn uint32, program []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.engine.SendBPFCC(conn, program)
	s.drv.Flush()
	return err
}

// ReceiveBPFCC blocks until a complete eBPF program arrives.
func (s *Session) ReceiveBPFCC(ctx context.Context) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.bpfProgs) == 0 && !s.closed {
		if err := s.waitLocked(ctx, s.cond); err != nil {
			return nil, err
		}
	}
	if len(s.bpfProgs) == 0 {
		return nil, ErrSessionClosed
	}
	prog := s.bpfProgs[0]
	s.bpfProgs = s.bpfProgs[1:]
	return prog, nil
}

// Ping measures the round-trip time of one connection using an encrypted
// echo record (§3.3.3's active probing).
func (s *Session) Ping(conn uint32, timeout time.Duration) (time.Duration, error) {
	token := uint64(time.Now().UnixNano())
	ch := make(chan struct{})
	s.mu.Lock()
	s.echoCh[token] = ch
	err := s.engine.SendEcho(conn, token)
	s.drv.Flush()
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	select {
	case <-ch:
		return time.Since(start), nil
	case <-time.After(timeout):
		s.mu.Lock()
		delete(s.echoCh, token)
		s.mu.Unlock()
		return 0, fmt.Errorf("tcpls: ping on conn %d timed out", conn)
	}
}
