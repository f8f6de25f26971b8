// Package handshake implements the TLS 1.3-shaped handshake that TCPLS
// extends (paper §3.2, Fig. 3): X25519 ECDHE key exchange, the RFC 8446
// key schedule, Ed25519 server authentication, transcript-bound Finished
// messages, and the TCPLS extensions — TCPLS Hello in the ClientHello,
// and the server's encrypted ADDR / SESSID / COOKIE extensions that
// enable joining additional TCP connections to a session.
//
// The handshake is sans-IO: a Machine takes the bytes read from the
// connection and hands back the flights to write (machine.go), and one
// blocking loop (Transport) drives it over a socket. The simulator and
// tests drive the same machine without one.
//
// This is a from-scratch implementation (see DESIGN.md): crypto/tls
// cannot be extended with new record types or handshake extensions, and
// TCPLS's contribution lives exactly there.
package handshake

import (
	"crypto/hmac"
	"hash"

	"tcpls/internal/hkdf"
	"tcpls/internal/record"
)

// keySchedule tracks the RFC 8446 §7.1 secret cascade alongside the
// running transcript hash.
type keySchedule struct {
	suite      *record.Suite
	transcript hash.Hash
	// secret is the current secret in the cascade, as the one HMAC keyed
	// with it: every label of a level derives from that.
	secret *hkdf.Expander
}

// newKeySchedulePSK seeds the early secret with a resumption PSK
// (RFC 8446 §7.1's PSK input); nil means no PSK.
func newKeySchedulePSK(suite *record.Suite, psk []byte) *keySchedule {
	ks := &keySchedule{suite: suite, transcript: suite.NewHash()}
	if psk == nil {
		psk = make([]byte, ks.transcript.Size())
	}
	ks.secret = hkdf.NewExpander(suite.NewHash, hkdf.Extract(suite.NewHash, psk, nil))
	return ks
}

// addTranscript absorbs a serialized handshake message.
func (ks *keySchedule) addTranscript(msg []byte) { ks.transcript.Write(msg) }

// transcriptHash returns the hash of all messages absorbed so far.
func (ks *keySchedule) transcriptHash() []byte { return ks.transcript.Sum(nil) }

// advance moves the cascade down one level: Derive-Secret(secret,
// "derived", "") then HKDF-Extract with the new input keying material
// (the ECDHE shared secret, or zeros for the master secret).
func (ks *keySchedule) advance(ikm []byte) {
	emptyHash := ks.suite.NewHash().Sum(nil)
	derived := ks.secret.DeriveSecret("derived", emptyHash)
	if ikm == nil {
		ikm = make([]byte, ks.transcript.Size())
	}
	ks.secret = hkdf.NewExpander(ks.suite.NewHash, hkdf.Extract(ks.suite.NewHash, ikm, derived))
}

// earlyTrafficSecret derives the client_early_traffic_secret protecting
// 0-RTT records (RFC 8446 §7.1): the early secret is HKDF-Extract(PSK)
// — the top of the cascade, before any ECDHE input exists — and the
// traffic secret binds it to the ClientHello alone, the only handshake
// message on the wire when early records are sealed. Both sides can
// therefore derive it with nothing but the PSK and the CH bytes.
func earlyTrafficSecret(suite *record.Suite, psk, chBytes []byte) []byte {
	early := hkdf.Extract(suite.NewHash, psk, nil)
	h := suite.NewHash()
	h.Write(chBytes)
	return hkdf.DeriveSecret(suite.NewHash, early, "c e traffic", h.Sum(nil))
}

// trafficSecret derives a traffic secret at the current cascade level,
// bound to the current transcript.
func (ks *keySchedule) trafficSecret(label string) []byte {
	return ks.secret.DeriveSecret(label, ks.transcriptHash())
}

// finishedMAC computes the Finished verify_data for a traffic secret over
// the current transcript (RFC 8446 §4.4.4).
func (ks *keySchedule) finishedMAC(trafficSecret []byte) []byte {
	finishedKey := hkdf.ExpandLabel(ks.suite.NewHash, trafficSecret, "finished", nil, ks.transcript.Size())
	mac := hmac.New(ks.suite.NewHash, finishedKey)
	mac.Write(ks.transcriptHash())
	return mac.Sum(nil)
}

// verifyFinished checks a peer's Finished verify_data in constant time.
func (ks *keySchedule) verifyFinished(trafficSecret, verifyData []byte) bool {
	return hmac.Equal(ks.finishedMAC(trafficSecret), verifyData)
}

// Secrets is the output of a completed handshake: everything the record
// layer and session need.
type Secrets struct {
	Suite *record.Suite
	// ClientApp and ServerApp protect application data in each
	// direction; every TCPLS stream context is derived from these.
	ClientApp []byte
	ServerApp []byte
	// Resumption seeds session tickets (TFO + 0-RTT resumption, §4.5).
	Resumption []byte
}
