// Package hkdf implements HKDF (RFC 5869) together with the TLS 1.3
// HKDF-Expand-Label and Derive-Secret constructions (RFC 8446 §7.1).
//
// TCPLS derives all of its per-stream cryptographic material from the TLS
// application traffic secret, so the exact TLS 1.3 labeled-expansion wire
// format matters: it keeps our records byte-compatible with what a TLS 1.3
// middlebox expects to see negotiated.
package hkdf

import (
	"crypto/hmac"
	"fmt"
	"hash"
)

// Extract performs HKDF-Extract: PRK = HMAC-Hash(salt, ikm).
// A nil salt is replaced by a string of HashLen zero bytes, per RFC 5869.
func Extract(newHash func() hash.Hash, secret, salt []byte) []byte {
	if salt == nil {
		salt = make([]byte, newHash().Size())
	}
	mac := hmac.New(newHash, salt)
	mac.Write(secret)
	return mac.Sum(nil)
}

// Expander performs HKDF-Expand under one pseudorandom key. Keying an
// HMAC (two pad blocks, two hash states) is most of the cost of a
// 32-byte expansion, so a caller deriving several labels from one secret
// (every level of the TLS 1.3 key schedule; a traffic secret's key and
// IV) keys one Expander and reuses it. Not safe for concurrent use.
type Expander struct {
	mac hash.Hash
}

// NewExpander keys an Expander with prk.
func NewExpander(newHash func() hash.Hash, prk []byte) *Expander {
	return &Expander{mac: hmac.New(newHash, prk)}
}

// Expand performs HKDF-Expand: length bytes of output keying material
// from the Expander's key and info.
func (e *Expander) Expand(info []byte, length int) []byte {
	hashLen := e.mac.Size()
	if length > 255*hashLen {
		panic(fmt.Sprintf("hkdf: requested %d bytes, max %d", length, 255*hashLen))
	}
	var (
		out  = make([]byte, 0, (length+hashLen-1)/hashLen*hashLen)
		prev []byte
	)
	for counter := byte(1); len(out) < length; counter++ {
		e.mac.Reset()
		e.mac.Write(prev)
		e.mac.Write(info)
		e.mac.Write([]byte{counter})
		out = e.mac.Sum(out)
		prev = out[len(out)-hashLen:]
	}
	return out[:length]
}

// ExpandLabel implements TLS 1.3 HKDF-Expand-Label:
//
//	HKDF-Expand(secret, HkdfLabel{length, "tls13 "+label, context}, length)
func (e *Expander) ExpandLabel(label string, context []byte, length int) []byte {
	if len(tls13LabelPrefix)+len(label) > 255 || len(context) > 255 {
		panic("hkdf: label or context too long")
	}
	info := make([]byte, 0, 4+len(tls13LabelPrefix)+len(label)+len(context))
	info = append(info, byte(length>>8), byte(length))
	info = append(info, byte(len(tls13LabelPrefix)+len(label)))
	info = append(info, tls13LabelPrefix...)
	info = append(info, label...)
	info = append(info, byte(len(context)))
	info = append(info, context...)
	return e.Expand(info, length)
}

// DeriveSecret implements TLS 1.3 Derive-Secret: ExpandLabel with the
// transcript hash as context and the hash length as output length.
func (e *Expander) DeriveSecret(label string, transcriptHash []byte) []byte {
	return e.ExpandLabel(label, transcriptHash, e.mac.Size())
}

// tls13LabelPrefix is prepended to every label per RFC 8446 §7.1.
const tls13LabelPrefix = "tls13 "

// Expand, ExpandLabel and DeriveSecret are the one-shot forms: one
// derivation under a secret used for nothing else.
func Expand(newHash func() hash.Hash, prk, info []byte, length int) []byte {
	return NewExpander(newHash, prk).Expand(info, length)
}

func ExpandLabel(newHash func() hash.Hash, secret []byte, label string, context []byte, length int) []byte {
	return NewExpander(newHash, secret).ExpandLabel(label, context, length)
}

func DeriveSecret(newHash func() hash.Hash, secret []byte, label string, transcriptHash []byte) []byte {
	return NewExpander(newHash, secret).DeriveSecret(label, transcriptHash)
}
