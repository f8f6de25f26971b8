// Package record implements the TLS 1.3 record layer extended with the
// TCPLS per-stream cryptographic contexts from the paper's §3.3.1:
//
//   - standard TLS 1.3 AEAD record protection (RFC 8446 §5.2) whose records
//     are what middleboxes observe on the wire;
//   - the Fig. 2 IV-derivation scheme that gives every TCPLS stream an
//     independent encryption context from a single application secret: the
//     left-most 32 bits of the TLS IV are summed with the Stream ID and the
//     right-most 64 bits are XORed with the per-stream record sequence
//     number, guaranteeing nonce uniqueness across the whole session;
//   - trial decryption, which recovers the implicit Stream ID of a received
//     record by checking AEAD tags across the streams attached to a
//     connection (§4.1), trying the last successful stream first;
//   - pooled record buffers (Buf): a record is decrypted out of place
//     into one, which a receive queue may then keep by reference, so the
//     AEAD pass is the only write of a received payload byte.
package record

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"hash"
)

// SuiteID identifies a TLS 1.3 cipher suite.
type SuiteID uint16

// TLSAES128GCMSHA256 is the one cipher suite this implementation
// supports: the suite TLS 1.3 makes mandatory (RFC 8446 §9.1), and the
// one the paper's measurements use throughout.
const TLSAES128GCMSHA256 SuiteID = 0x1301

// Suite describes a cipher suite's primitives.
type Suite struct {
	ID      SuiteID
	KeyLen  int
	IVLen   int
	TagLen  int
	NewHash func() hash.Hash
	newAEAD func(key []byte) (cipher.AEAD, error)
}

// Name returns the IANA name of the suite.
func (s *Suite) Name() string {
	switch s.ID {
	case TLSAES128GCMSHA256:
		return "TLS_AES_128_GCM_SHA256"
	}
	return fmt.Sprintf("unknown(0x%04x)", uint16(s.ID))
}

// AEAD constructs the suite's AEAD for the given traffic key.
func (s *Suite) AEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != s.KeyLen {
		return nil, fmt.Errorf("record: %s key must be %d bytes, got %d", s.Name(), s.KeyLen, len(key))
	}
	return s.newAEAD(key)
}

var suites = map[SuiteID]*Suite{
	TLSAES128GCMSHA256: {
		ID:      TLSAES128GCMSHA256,
		KeyLen:  16,
		IVLen:   12,
		TagLen:  16,
		NewHash: sha256.New,
		newAEAD: func(key []byte) (cipher.AEAD, error) {
			block, err := aes.NewCipher(key)
			if err != nil {
				return nil, err
			}
			return cipher.NewGCM(block)
		},
	},
}

// SuiteByID returns the Suite for id, or an error for unknown suites.
func SuiteByID(id SuiteID) (*Suite, error) {
	s, ok := suites[id]
	if !ok {
		return nil, fmt.Errorf("record: unsupported cipher suite 0x%04x", uint16(id))
	}
	return s, nil
}
