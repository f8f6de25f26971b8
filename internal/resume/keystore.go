// Package resume implements the server-side state behind low-latency
// session establishment (paper §4.5): a persistent, generation-tagged
// ticket-key store so resumption tickets survive server restarts, and a
// bounded anti-replay strike register gating 0-RTT early data.
//
// The key store replaces the throwaway per-process sealer key: keys live
// in an encrypted file, new generations are minted by Rotate, the
// previous generations stay accepted for a grace window, and a ticket
// opened under an old generation is flagged for re-issue so clients
// migrate forward without ever falling back to a full handshake.
package resume

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"io"
	"os"
	"sync"
	"time"

	"crypto/sha256"
	"hash"

	"tcpls/internal/hkdf"
	"tcpls/internal/wire"
)

// Typed rejects: hostile ticket or key-file bytes must land here, never
// in a panic or an attacker-sized allocation.
var (
	// ErrBadTicket rejects a ticket that is malformed, forged, or sealed
	// under a generation no longer accepted.
	ErrBadTicket = errors.New("resume: bad ticket")
	// ErrBadKeyFile rejects a key file that is truncated, corrupt, or
	// encrypted under a different passphrase.
	ErrBadKeyFile = errors.New("resume: bad key file")
	// ErrNoKeys means the store holds no keys (never happens through the
	// constructors; guards a zero-value KeyStore).
	ErrNoKeys = errors.New("resume: key store is empty")
)

// Sizes of the pieces of the on-disk format and the ticket format.
const (
	keyLen         = 32 // AES-256-GCM ticket keys
	saltLen        = 16
	fileNonceLen   = 12
	ticketNonceLen = 12
	genLen         = 4
	issuedLen      = 8                   // issuance stamp sealed inside the ticket
	entryLen       = genLen + 8 + keyLen // gen | created unix secs | key

	// maxKeyFileEntries bounds parsing: the accept window is small, so a
	// file claiming thousands of keys is hostile, not operational.
	maxKeyFileEntries = 64
)

// fileMagic identifies version 1 of the encrypted key file.
var fileMagic = []byte("TCPLSTK1")

// DefaultAcceptWindow is how many generations (newest first) a store
// accepts by default: the current key and one predecessor, so a rotation
// never strands tickets minted moments before it.
const DefaultAcceptWindow = 2

// ticketKey is one generation of the sealing key.
type ticketKey struct {
	gen     uint32
	created time.Time
	raw     [keyLen]byte
	aead    cipher.AEAD
}

// KeyStore seals resumption PSKs into opaque tickets and recovers them,
// under generation-tagged keys that persist across process restarts.
// All methods are safe for concurrent use.
type KeyStore struct {
	mu         sync.Mutex
	path       string // "" = memory-only (no persistence)
	passphrase []byte
	window     int
	keys       []ticketKey // newest first
	now        func() time.Time
}

// NewMemory creates an ephemeral store with one fresh key and no backing
// file — the behaviour of the pre-keystore sealer, used when no key file
// is configured.
func NewMemory() (*KeyStore, error) {
	ks := &KeyStore{window: DefaultAcceptWindow, now: time.Now}
	if err := ks.addKeyLocked(1); err != nil {
		return nil, err
	}
	return ks, nil
}

// Open loads the key store at path, creating it with one fresh key if it
// does not exist. The file is encrypted and integrity-protected under a
// key derived from passphrase (empty passphrase is allowed: the file is
// then protected by its 0600 permissions and still tamper-evident).
func Open(path string, passphrase []byte) (*KeyStore, error) {
	ks := &KeyStore{
		path:       path,
		passphrase: append([]byte(nil), passphrase...),
		window:     DefaultAcceptWindow,
		now:        time.Now,
	}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := ks.decodeLocked(raw); err != nil {
			return nil, err
		}
		return ks, nil
	case errors.Is(err, os.ErrNotExist):
		if err := ks.addKeyLocked(1); err != nil {
			return nil, err
		}
		if err := ks.persistLocked(); err != nil {
			return nil, err
		}
		return ks, nil
	default:
		return nil, err
	}
}

// addKeyLocked mints a fresh key as generation gen and prepends it.
func (ks *KeyStore) addKeyLocked(gen uint32) error {
	var k ticketKey
	k.gen = gen
	if ks.now != nil {
		k.created = ks.now()
	} else {
		k.created = time.Now()
	}
	if _, err := io.ReadFull(rand.Reader, k.raw[:]); err != nil {
		return err
	}
	aead, err := newTicketAEAD(k.raw[:])
	if err != nil {
		return err
	}
	k.aead = aead
	ks.keys = append([]ticketKey{k}, ks.keys...)
	return nil
}

func newTicketAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Rotate mints a new key generation, keeps the previous window-1
// generations accepted, drops everything older, and persists the result
// when the store is file-backed. Tickets sealed under a dropped
// generation fail OpenTicket and fall back to a full handshake; tickets
// under a still-accepted old generation open with reissue=true.
func (ks *KeyStore) Rotate() error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	next := uint32(1)
	if len(ks.keys) > 0 {
		next = ks.keys[0].gen + 1
	}
	if err := ks.addKeyLocked(next); err != nil {
		return err
	}
	if len(ks.keys) > ks.window {
		ks.keys = ks.keys[:ks.window]
	}
	return ks.persistLocked()
}

// Generation returns the current (sealing) key generation.
func (ks *KeyStore) Generation() uint32 {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if len(ks.keys) == 0 {
		return 0
	}
	return ks.keys[0].gen
}

// Len returns how many generations are currently accepted.
func (ks *KeyStore) Len() int {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return len(ks.keys)
}

// Seal encrypts psk into an opaque ticket under the newest key:
//
//	gen(4) | nonce(12) | AEAD(issued(8) | psk, aad=gen)
//
// The nonce doubles as the ticket's unique identity for the 0-RTT
// anti-replay register (TicketNonce). The issuance stamp (unix
// milliseconds, sealed so clients cannot forge it) bounds how old a
// ticket may be for 0-RTT: the strike register only remembers nonces
// for a window, so flights under older tickets must not be accepted
// (RFC 8446 §8 pairs the register with exactly this freshness check).
func (ks *KeyStore) Seal(psk []byte) ([]byte, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if len(ks.keys) == 0 {
		return nil, ErrNoKeys
	}
	k := &ks.keys[0]
	now := time.Now()
	if ks.now != nil {
		now = ks.now()
	}
	inner := make([]byte, 0, issuedLen+len(psk))
	inner = wire.AppendUint64(inner, uint64(now.UnixMilli()))
	inner = append(inner, psk...)
	out := make([]byte, 0, genLen+ticketNonceLen+len(inner)+k.aead.Overhead())
	out = wire.AppendUint32(out, k.gen)
	nonceStart := len(out)
	out = out[:nonceStart+ticketNonceLen]
	if _, err := io.ReadFull(rand.Reader, out[nonceStart:]); err != nil {
		return nil, err
	}
	return k.aead.Seal(out, out[nonceStart:], inner, out[:genLen]), nil
}

// OpenTicket recovers the PSK and the sealed issuance time from a
// ticket. reissue reports that the ticket was sealed under an
// old-but-accepted generation: the caller should mint the client a
// fresh ticket so it migrates to the current key before the old
// generation ages out.
func (ks *KeyStore) OpenTicket(ticket []byte) (psk []byte, issued time.Time, reissue bool, err error) {
	if len(ticket) < genLen+ticketNonceLen+1 {
		return nil, time.Time{}, false, ErrBadTicket
	}
	gen := wire.Uint32(ticket[:genLen])
	ks.mu.Lock()
	defer ks.mu.Unlock()
	for i := range ks.keys {
		k := &ks.keys[i]
		if k.gen != gen {
			continue
		}
		nonce := ticket[genLen : genLen+ticketNonceLen]
		inner, err := k.aead.Open(nil, nonce, ticket[genLen+ticketNonceLen:], ticket[:genLen])
		if err != nil || len(inner) < issuedLen {
			return nil, time.Time{}, false, ErrBadTicket
		}
		issued := time.UnixMilli(int64(wire.Uint64(inner[:issuedLen])))
		return inner[issuedLen:], issued, i > 0, nil
	}
	return nil, time.Time{}, false, ErrBadTicket
}

// TicketNonce extracts a ticket's unique identity — the AEAD nonce the
// sealing key used — without opening it. The 0-RTT anti-replay register
// keys its strike entries on this value: a replayed first flight
// necessarily replays the same ticket bytes, hence the same nonce.
func TicketNonce(ticket []byte) ([ticketNonceLen]byte, bool) {
	var n [ticketNonceLen]byte
	if len(ticket) < genLen+ticketNonceLen+1 {
		return n, false
	}
	copy(n[:], ticket[genLen:genLen+ticketNonceLen])
	return n, true
}

// fileKey derives the file-encryption key from the passphrase and salt.
func fileKey(passphrase, salt []byte) []byte {
	newHash := func() hash.Hash { return sha256.New() }
	prk := hkdf.Extract(newHash, passphrase, salt)
	return hkdf.ExpandLabel(newHash, prk, "ticket key file", nil, keyLen)
}

// persistLocked writes the encrypted key file atomically (tmp + rename).
func (ks *KeyStore) persistLocked() error {
	if ks.path == "" {
		return nil
	}
	payload := make([]byte, 0, 2+len(ks.keys)*entryLen)
	payload = wire.AppendUint16(payload, uint16(len(ks.keys)))
	for i := range ks.keys {
		k := &ks.keys[i]
		payload = wire.AppendUint32(payload, k.gen)
		payload = wire.AppendUint64(payload, uint64(k.created.Unix()))
		payload = append(payload, k.raw[:]...)
	}

	out := make([]byte, 0, len(fileMagic)+saltLen+fileNonceLen+len(payload)+16)
	out = append(out, fileMagic...)
	salt := make([]byte, saltLen)
	if _, err := io.ReadFull(rand.Reader, salt); err != nil {
		return err
	}
	out = append(out, salt...)
	nonce := make([]byte, fileNonceLen)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return err
	}
	out = append(out, nonce...)
	aead, err := newTicketAEAD(fileKey(ks.passphrase, salt))
	if err != nil {
		return err
	}
	out = aead.Seal(out, nonce, payload, out[:len(fileMagic)+saltLen])

	tmp := ks.path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, ks.path)
}

// decodeLocked parses and decrypts a key file into the store.
func (ks *KeyStore) decodeLocked(raw []byte) error {
	hdr := len(fileMagic) + saltLen + fileNonceLen
	if len(raw) < hdr+16 || string(raw[:len(fileMagic)]) != string(fileMagic) {
		return ErrBadKeyFile
	}
	salt := raw[len(fileMagic) : len(fileMagic)+saltLen]
	nonce := raw[len(fileMagic)+saltLen : hdr]
	aead, err := newTicketAEAD(fileKey(ks.passphrase, salt))
	if err != nil {
		return err
	}
	payload, err := aead.Open(nil, nonce, raw[hdr:], raw[:len(fileMagic)+saltLen])
	if err != nil {
		return ErrBadKeyFile
	}
	r := wire.NewReader(payload)
	count := int(r.Uint16())
	if r.Err() != nil || count == 0 || count > maxKeyFileEntries || r.Len() != count*entryLen {
		return ErrBadKeyFile
	}
	keys := make([]ticketKey, 0, count)
	for i := 0; i < count; i++ {
		var k ticketKey
		k.gen = r.Uint32()
		k.created = time.Unix(int64(r.Uint64()), 0)
		copy(k.raw[:], r.Bytes(keyLen))
		if r.Err() != nil {
			return ErrBadKeyFile
		}
		if k.aead, err = newTicketAEAD(k.raw[:]); err != nil {
			return err
		}
		keys = append(keys, k)
	}
	// Generations must be strictly descending (newest first): duplicate
	// or shuffled generations would make reissue decisions ambiguous.
	for i := 1; i < len(keys); i++ {
		if keys[i].gen >= keys[i-1].gen {
			return ErrBadKeyFile
		}
	}
	ks.keys = keys
	return nil
}
