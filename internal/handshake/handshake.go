package handshake

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"net/netip"

	"tcpls/internal/record"
)

// Certificate is the server identity: an Ed25519 key pair plus a name.
type Certificate struct {
	Name    string
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// NewCertificate generates a fresh identity for name.
func NewCertificate(name string) (*Certificate, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Certificate{Name: name, Public: pub, Private: priv}, nil
}

// Config controls one handshake.
type Config struct {
	// --- client side ---
	ServerName string
	// RootKeys are the trusted server public keys. Empty means "accept
	// any" (tests); production callers must pin keys.
	RootKeys []ed25519.PublicKey
	// EnableTCPLS sends the TCPLS Hello extension (paper §3.2). When the
	// server does not echo it the client falls back to plain TLS.
	EnableTCPLS bool
	// Join, when set, asks to join an existing session (Fig. 3) instead
	// of opening a new one.
	Join *JoinTicket
	// PSK + PSKTicket resume a previous session (§4.5): the opaque
	// ticket rides the ClientHello; the PSK seeds the key schedule when
	// the server accepts. The certificate exchange is skipped (the PSK
	// authenticates continuity, as in TLS 1.3 resumption).
	PSK       []byte
	PSKTicket []byte
	// EarlyData, with a PSK ticket, is sent as 0-RTT application records
	// in the first flight (§4.5): the server receives it before its own
	// first byte crosses the wire. One-shot and replayable by design —
	// callers gate what goes here; the server side gates acceptance
	// through its anti-replay register.
	EarlyData []byte

	// --- server side ---
	Certificate *Certificate
	// TCPLSServer enables TCPLS on the server side.
	TCPLSServer bool
	// AdvertiseAddrs is the server address list for ADDR extensions.
	AdvertiseAddrs []netip.Addr
	// NumCookies bounds how many extra connections the client may join
	// (resource-exhaustion defence, §3.3.2). Default 2 when TCPLS is on.
	NumCookies int
	// Sessions validates join attempts against the server session table.
	Sessions JoinValidator
	// DecryptTicket recovers the PSK from a resumption ticket (server
	// side); returning ok=false falls back to a full handshake.
	DecryptTicket func(ticket []byte) (psk []byte, ok bool)
	// AcceptEarlyData gates one 0-RTT offer after the PSK was recovered:
	// the listener consults its anti-replay strike register (and the
	// ticket's sealed freshness stamp) with the ticket bytes. Returning
	// false (or a nil hook with MaxEarlyData < 0) makes the server
	// decrypt-and-discard the early flight; the client falls back to
	// 1-RTT. Never called when the PSK was not recovered.
	AcceptEarlyData func(ticket []byte) bool
	// MaxEarlyData budgets the 0-RTT flight in plaintext bytes. Zero
	// means the default (16 KiB); negative refuses all early data.
	MaxEarlyData int
	// OnSessionIssued fires on the server as soon as the session ID and
	// cookies are sent in EncryptedExtensions — before the handshake
	// finishes — so the session table can accept joins that race the
	// tail of the initial handshake.
	OnSessionIssued func(id SessID, cookies []Cookie)
}

// JoinTicket is what a client must present to join a session. ConnID is
// the client-chosen identifier for the new connection within the session.
type JoinTicket struct {
	SessID SessID
	Cookie Cookie
	ConnID uint32
}

// JoinValidator is the server-side hook into the session table. Validate
// must atomically check and consume the single-use cookie.
type JoinValidator interface {
	ValidateJoin(id SessID, cookie Cookie) bool
}

// Result is the outcome of a completed handshake.
type Result struct {
	Secrets Secrets
	// TCPLSEnabled reports whether both sides negotiated TCPLS.
	TCPLSEnabled bool
	// JoinAccepted reports whether this connection joined an existing
	// session (in which case SessID names it).
	JoinAccepted bool
	// JoinConnID is the client-chosen connection ID of a joined
	// connection.
	JoinConnID uint32
	// Resumed reports whether the handshake used a PSK ticket.
	Resumed bool
	// EarlyDataAccepted reports that the 0-RTT offer was accepted: the
	// client's early bytes were (server) or will be (client) delivered
	// without waiting for the handshake to finish.
	EarlyDataAccepted bool
	// EarlyData is the received 0-RTT payload (server side only).
	EarlyData []byte
	// FastJoin reports a single-flight join: the connection carried
	// engine records right behind its ClientHello.
	FastJoin bool
	// SessID is the server-assigned session identifier (new sessions)
	// or the joined session's identifier.
	SessID SessID
	// Cookies are the join cookies issued by the server (client view) or
	// generated (server view).
	Cookies []Cookie
	// PeerAddrs is the address list the server advertised.
	PeerAddrs []netip.Addr
}

// Handshake errors.
var (
	ErrNoCertificate     = errors.New("handshake: server has no certificate configured")
	ErrBadFinished       = errors.New("handshake: peer Finished verification failed")
	ErrBadSignature      = errors.New("handshake: certificate signature verification failed")
	ErrUntrustedKey      = errors.New("handshake: server key not in trust roots")
	ErrNoCommonSuite     = errors.New("handshake: no common cipher suite")
	ErrJoinRejected      = errors.New("handshake: server rejected session join")
	ErrUnexpectedMessage = errors.New("handshake: unexpected message")
	// ErrEarlyDataOverflow: the peer's 0-RTT flight exceeded the
	// MaxEarlyData budget (hostile or misconfigured client).
	ErrEarlyDataOverflow = errors.New("handshake: early data exceeds budget")
)

// defaultMaxEarlyData bounds a 0-RTT flight when Config.MaxEarlyData is
// zero. Kept modest: the whole flight must fit in flight-one socket
// buffers on both sides to avoid a handshake deadlock.
const defaultMaxEarlyData = 16384

// EarlyDataBudget resolves a Config.MaxEarlyData value to the effective
// 0-RTT budget in bytes: zero selects the default, negative disables
// early data entirely. Exported so the ticket issuer can advertise the
// same number the server will enforce.
func EarlyDataBudget(v int) int {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return defaultMaxEarlyData
	}
	return v
}

// offeredSuites is what a client offers: the one suite this
// implementation runs, TLS 1.3's mandatory AES-128-GCM-SHA256.
var offeredSuites = []record.SuiteID{record.TLSAES128GCMSHA256}

// signatureContext is mixed into the CertificateVerify signature input so
// the signature cannot be confused with other uses of the key
// (RFC 8446 §4.4.3 uses a similar context string).
const signatureContext = "TCPLS, server CertificateVerify"

func signatureInput(transcriptHash []byte) []byte {
	b := append(bytes.Repeat([]byte{0x20}, 64), signatureContext...)
	return append(append(b, 0), transcriptHash...)
}

// generateKeyShare creates an X25519 key pair.
func generateKeyShare() (*ecdh.PrivateKey, error) {
	return ecdh.X25519().GenerateKey(rand.Reader)
}

func sharedSecret(priv *ecdh.PrivateKey, peerPub []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("%w: peer key share: %v", ErrDecode, err)
	}
	return priv.ECDH(pub)
}

// pickSuite finds AES-128-GCM-SHA256 among the peer's offered (server)
// or chosen (client) suites; anything else is ErrNoCommonSuite.
func pickSuite(offered []record.SuiteID) (*record.Suite, error) {
	for _, o := range offered {
		if o == record.TLSAES128GCMSHA256 {
			return record.SuiteByID(o)
		}
	}
	return nil, ErrNoCommonSuite
}

// deriveAppSecrets finishes the key schedule after the server Finished:
// master secret and application traffic secrets.
func deriveAppSecrets(ks *keySchedule) Secrets {
	ks.advance(nil) // master secret
	return Secrets{
		Suite:     ks.suite,
		ClientApp: ks.trafficSecret("c ap traffic"),
		ServerApp: ks.trafficSecret("s ap traffic"),
	}
}
