package tcpls

import (
	"fmt"
	"time"
)

// ConnInfo is per-TCP-connection state exposed to the application — the
// paper's §3.3.3 use of tcp_info for application-level path decisions
// (stream steering, migration policies).
//
// On Linux with real TCP connections the kernel's TCP_INFO fills the
// congestion fields; elsewhere (or over non-TCP transports such as the
// test pipes) only the TCPLS-level fields are populated and Kernel is
// false.
type ConnInfo struct {
	ConnID uint32
	// Kernel reports whether the congestion fields below came from the
	// kernel's TCP_INFO.
	Kernel bool
	// RTT / RTTVar are the kernel's smoothed estimates.
	RTT    time.Duration
	RTTVar time.Duration
	// SndCwnd is the congestion window in segments; SndMSS the segment
	// size; PMTU the path MTU; Retrans the total retransmissions.
	SndCwnd uint32
	SndMSS  uint32
	PMTU    uint32
	Retrans uint32
	// LocalAddr / RemoteAddr identify the path.
	LocalAddr  string
	RemoteAddr string
}

// ConnInfo returns statistics for one of the session's connections.
func (s *Session) ConnInfo(connID uint32) (*ConnInfo, error) {
	s.mu.Lock()
	pc := s.pathConnLocked(connID)
	s.mu.Unlock()
	if pc == nil {
		return nil, fmt.Errorf("tcpls: unknown connection %d", connID)
	}
	info := &ConnInfo{
		ConnID:     connID,
		LocalAddr:  pc.nc.LocalAddr().String(),
		RemoteAddr: pc.nc.RemoteAddr().String(),
	}
	fillKernelInfo(pc.nc, info)
	return info, nil
}
