package tcpls

import (
	"crypto/ed25519"
	"fmt"
	"net"
	"net/netip"
	"time"

	"tcpls/internal/core"
	"tcpls/internal/handshake"
	"tcpls/internal/sched"
)

// Certificate is a server identity (Ed25519 key pair plus name).
type Certificate = handshake.Certificate

// NewCertificate generates a fresh server identity.
func NewCertificate(name string) (*Certificate, error) {
	return handshake.NewCertificate(name)
}

// SessID identifies a TCPLS session on the server.
type SessID = handshake.SessID

// Cookie is a single-use token authorizing one connection join.
type Cookie = handshake.Cookie

// Config configures both clients (Dial) and servers (Listen).
type Config struct {
	// ServerName is the expected server identity (client side).
	ServerName string
	// RootKeys pins acceptable server public keys (client side). Empty
	// accepts any key — use only in tests.
	RootKeys []ed25519.PublicKey
	// Certificate is the server identity (server side).
	Certificate *Certificate
	// AdvertiseAddrs is announced to clients in the encrypted ADDR
	// extension so they can join additional paths.
	AdvertiseAddrs []netip.Addr
	// NumCookies bounds the client's join budget (default 2).
	NumCookies int

	// DisableTCPLS turns the session into plain TLS-over-TCP: no TCPLS
	// Hello is offered/echoed and no transport services are available.
	// Used by the TLS/TCP baseline in the paper's Fig. 7.
	DisableTCPLS bool

	// HandshakeTimeout bounds the server-side handshake on each accepted
	// TCP connection: a client that connects and then stalls (or
	// trickles bytes) is cut off at the deadline instead of pinning a
	// handshake goroutine and its admission slot forever. The deadline
	// covers the whole handshake, including a join's wait for its
	// session's initial handshake to finish. Zero means the default
	// (10s); negative disables the deadline. Client handshakes bound
	// themselves with dial timeouts instead.
	HandshakeTimeout time.Duration

	// Admission, when set, gates the server accept path — the hook the
	// production server runtime (internal/server) uses for token-bucket
	// accept rate limiting, per-IP caps, and memory-budget shedding.
	// AdmitConn runs after the TCP accept and before any handshake
	// work; AdmitJoin gates each cookie/join attempt; AdmitSession
	// gates creation of a new session after a successful handshake.
	// Rejections close the connection; a join rejected by admission is
	// traced as join_rejected on the target session's timeline.
	Admission AdmissionControl

	// EnableFailover turns on record acknowledgments, retransmission
	// buffering, and automatic failover (paper §4.2).
	EnableFailover bool
	// AckPeriod acknowledges every n received records (default 16).
	AckPeriod int
	// MaxRecordPayload caps stream bytes per record (default ~16 KiB;
	// the paper's Appendix A uses 1500 to smooth aggregation).
	MaxRecordPayload int
	// UserTimeout is the encrypted TCP User Timeout: silence on an
	// active connection beyond this declares it failed. Zero disables
	// timer-based failure detection (RST/FIN detection still works).
	UserTimeout time.Duration

	// MaxRetransmitBytes is the send window with EnableFailover: the
	// most a sender keeps between its oldest unacknowledged record and
	// its newest, per stream and across the coupled group. At the window
	// Write and WriteCoupled block until acknowledgments move it. Zero
	// means the default (16 MiB); negative disables the window.
	MaxRetransmitBytes int
	// MaxReorderBytes and MaxReorderRecords are the receiver's limit on
	// the coupled reorder heap with EnableFailover. An honest peer whose
	// window is no larger keeps the heap below it; a peer that ignores
	// its window fails the session. Zero means the defaults (16 MiB /
	// 8192 records); negative disables the limit.
	MaxReorderBytes   int
	MaxReorderRecords int
	// MaxRecvBufferBytes caps each stream's (and the coupled group's)
	// receive buffer. At the cap the session stops reading the
	// offending connection's socket until the application drains Read —
	// TCP's receive window then pushes back on the peer. Zero means the
	// default (16 MiB); negative disables the cap.
	MaxRecvBufferBytes int

	// Scheduler names the multipath record scheduler for coupled
	// streams (§3.3.3): "roundrobin" (the default), "lowrtt" (lowest
	// smoothed RTT), "rate" (delivery-rate-weighted — the
	// bandwidth-aggregation workhorse), or "redundant" (every record on
	// every path). An unknown name fails Dial/Client/Listen. The RTT and
	// rate signals come from EnableFailover's record-level
	// acknowledgments; without them "lowrtt" and "rate" pick as
	// round-robin does.
	Scheduler string

	// Reconnect tunes the recovery supervisor: when every TCP connection
	// of a session has failed, the client side automatically re-dials the
	// remembered peer addresses (original dial target, joined paths, and
	// ADD_ADDR advertisements) using the session-join path, then resumes
	// parked streams via failover replay. The zero value enables
	// reconnection with the defaults documented on ReconnectConfig;
	// set Disabled to park streams until the deadline and then declare
	// the session dead with ErrSessionDead.
	Reconnect ReconnectConfig

	// Telemetry configures the observability layer: the session's entry
	// in the shared metrics registry (on by default), an optional HTTP
	// endpoint serving Prometheus /metrics plus /debug/pprof, and the
	// flight recorder. See TelemetryConfig.
	Telemetry TelemetryConfig

	// Health configures the continuous self-diagnosis sampler built on
	// the telemetry layer: time-series rings over the session's
	// counters and a rule table emitting live verdicts (stalls,
	// retransmit storms, memory growth, path asymmetry) to the flight
	// recorder, qlog, Prometheus, and /debug/tcpls/health. On by
	// default whenever telemetry is. See HealthConfig.
	Health HealthConfig

	// Ticket resumes a previous session with an abbreviated handshake
	// (paper §4.5): no certificate exchange, PSK-seeded key schedule.
	// Obtain one from Session.ResumptionTicket.
	Ticket *ClientTicket
	// DisableTickets stops the server from issuing resumption tickets.
	DisableTickets bool

	// TicketKeys is the server's resumption ticket key store. A store
	// opened from a key file (OpenTicketKeyStore) makes tickets survive
	// server restarts; nil falls back to a fresh in-memory key, matching
	// the pre-keystore behaviour (tickets die with the process).
	TicketKeys *TicketKeyStore

	// EarlyData, sent alongside Ticket, rides the client's first flight
	// as 0-RTT application records (§4.5): the server reads it before its
	// own first byte crosses the wire. Replayable by design — put only
	// idempotent data here. On acceptance it surfaces as the first bytes
	// of the session's first client stream (Session.EarlyStream); on
	// rejection Dial/Client transparently resend it at 1-RTT, so the
	// application sees identical bytes either way.
	EarlyData []byte
	// MaxEarlyData budgets a client's 0-RTT flight in plaintext bytes
	// (server side). Zero means the default (16 KiB); negative refuses
	// all early data while still completing the resumption handshake.
	MaxEarlyData int
}

// AdmissionControl gates the server accept edge. Implementations must
// be safe for concurrent use; every method runs on a per-connection
// handshake goroutine. internal/server provides the production
// implementation (token bucket, per-IP caps, process memory budget);
// the interface lives here so the Listener needs no knowledge of it.
type AdmissionControl interface {
	// AdmitConn is consulted once per accepted TCP connection, before
	// any handshake work. A non-nil error rejects the connection (it is
	// closed without a handshake byte being read). On success the
	// returned release func, if non-nil, is called exactly once when
	// the handshake finishes (either way) — the hook for concurrent-
	// handshake accounting. AdmitConn may block (bounded) to wait for
	// an accept token; that wait is the admission-control backpressure.
	AdmitConn(remote net.Addr) (release func(), err error)
	// AdmitJoin gates one cookie/join attempt from remote. Returning
	// false rejects the join: the cookie is NOT consumed and the
	// handshake fails with a join rejection.
	AdmitJoin(remote net.Addr) bool
	// AdmitSession gates registration of a new session (initial
	// handshakes only, not joins) right after the handshake succeeds.
	// A non-nil error sheds the session: its connection is closed and
	// its cookie state dropped before Accept ever sees it.
	AdmitSession(remote net.Addr) error
}

// defaultHandshakeTimeout bounds the server-side handshake when
// Config.HandshakeTimeout is zero.
const defaultHandshakeTimeout = 10 * time.Second

// handshakeTimeout resolves the configured server handshake deadline:
// zero means the default, negative disables.
func (c *Config) handshakeTimeout() time.Duration {
	switch {
	case c.HandshakeTimeout < 0:
		return 0
	case c.HandshakeTimeout == 0:
		return defaultHandshakeTimeout
	}
	return c.HandshakeTimeout
}

func (c *Config) clone() *Config {
	if c == nil {
		return &Config{}
	}
	out := *c
	return &out
}

// validateScheduler rejects unknown Scheduler names before any
// handshake work happens.
func (c *Config) validateScheduler() error {
	if c.Scheduler == "" {
		return nil
	}
	if _, ok := sched.ByName(c.Scheduler); !ok {
		return fmt.Errorf("tcpls: unknown scheduler %q", c.Scheduler)
	}
	return nil
}

func (c *Config) coreConfig() core.Config {
	return core.Config{
		EnableFailover:     c.EnableFailover,
		AckPeriod:          c.AckPeriod,
		MaxRecordPayload:   c.MaxRecordPayload,
		UserTimeout:        c.UserTimeout,
		MaxReorderBytes:    c.MaxReorderBytes,
		MaxReorderRecords:  c.MaxReorderRecords,
		MaxRecvBufferBytes: c.MaxRecvBufferBytes,
		MaxRetransmitBytes: c.MaxRetransmitBytes,
	}
}
