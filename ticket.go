package tcpls

import (
	"crypto/rand"
	"errors"
	"time"

	"tcpls/internal/hkdf"
	"tcpls/internal/record"
	"tcpls/internal/resume"
)

// ClientTicket is a stored resumption credential (paper §4.5): the
// server's opaque ticket plus the PSK both sides derived from the
// session's resumption secret. Present it via Config.Ticket to resume
// with an abbreviated handshake (no certificate exchange); combined with
// kernel TCP Fast Open this is the paper's low-latency establishment.
type ClientTicket struct {
	ServerName string
	Ticket     []byte
	PSK        []byte
	// MaxEarlyData is the server's advertised 0-RTT budget in plaintext
	// bytes (TLS 1.3's max_early_data_size). Dial clamps its offer to it:
	// early data larger than the budget is sent at 1-RTT instead of
	// tripping the server's overflow guard. Zero means the server
	// advertised no 0-RTT budget (old ticket or 0-RTT disabled).
	MaxEarlyData uint32
}

// pskLen is the resumption PSK size.
const pskLen = 32

// derivePSK computes the resumption PSK from the session's resumption
// master secret and the ticket nonce (RFC 8446 §4.6.1's derivation).
func derivePSK(suite *record.Suite, resumptionSecret []byte, nonce [16]byte) []byte {
	return hkdf.ExpandLabel(suite.NewHash, resumptionSecret, "resumption", nonce[:], pskLen)
}

// TicketKeyStore seals resumption PSKs into opaque tickets under
// generation-tagged server keys (internal/resume). Unlike the per-process
// random key it replaced, a store opened from a key file survives server
// restarts: tickets issued before the restart still resume afterwards.
// Rotation mints a new generation while the previous one stays accepted;
// tickets opened under an old generation are transparently reissued.
// Safe for concurrent use and shareable across listeners.
//
// The 0-RTT anti-replay strike register lives here rather than on the
// Listener: listeners sharing one key store accept each other's tickets,
// so they must also share strikes — otherwise a captured 0-RTT flight
// would be accepted once per listener.
type TicketKeyStore struct {
	ks     *resume.KeyStore
	replay *resume.Replay
}

// OpenTicketKeyStore loads (or atomically creates) an encrypted ticket
// key file. The passphrase derives the file-encryption key; an empty
// passphrase still authenticates the file against corruption.
func OpenTicketKeyStore(path string, passphrase []byte) (*TicketKeyStore, error) {
	ks, err := resume.Open(path, passphrase)
	if err != nil {
		return nil, err
	}
	return &TicketKeyStore{
		ks:     ks,
		replay: resume.NewReplay(resume.DefaultReplayWindow, resume.DefaultReplayCap, time.Now()),
	}, nil
}

// NewTicketKeyStore returns an in-memory store (no persistence) — the
// behaviour of servers that configure no key file.
func NewTicketKeyStore() (*TicketKeyStore, error) {
	ks, err := resume.NewMemory()
	if err != nil {
		return nil, err
	}
	return &TicketKeyStore{
		ks:     ks,
		replay: resume.NewReplay(resume.DefaultReplayWindow, resume.DefaultReplayCap, time.Now()),
	}, nil
}

// Rotate mints a new key generation and persists it; the previous
// generation remains accepted until the next rotation.
func (t *TicketKeyStore) Rotate() error { return t.ks.Rotate() }

// Generation reports the current (sealing) key generation.
func (t *TicketKeyStore) Generation() uint32 { return t.ks.Generation() }

// errNoTicket is returned when resumption state is unavailable.
var errNoTicket = errors.New("tcpls: no resumption ticket available yet")

// ResumptionTicket returns the most recent resumption credential the
// server issued on this session, or nil if none has arrived yet. Store
// it and pass it as Config.Ticket on a later Dial to the same server.
func (s *Session) ResumptionTicket() *ClientTicket {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticket
}

// issueTicket mints and sends a resumption ticket (server side); the
// listener's key store makes the ticket opaque and stateless.
func (s *Session) issueTicket(conn uint32) error {
	if s.sealTicket == nil || len(s.resumption) == 0 {
		return errNoTicket
	}
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	psk := derivePSK(s.suite, s.resumption, nonce)
	ticket, err := s.sealTicket(psk)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine.Note("ticket_issued", conn, 0, 0, len(ticket))
	err = s.engine.SendSessionTicket(conn, nonce, ticket, s.maxEarlyAdvert)
	s.drv.Flush()
	return err
}
