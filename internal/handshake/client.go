package handshake

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"io"

	"tcpls/internal/record"
)

// Client runs the client side of the TCPLS handshake over rw and returns
// the negotiated secrets and TCPLS parameters.
//
// Message flow (paper Fig. 3):
//
//	C -> S  ClientHello{key_share, TCPLS Hello | TCPLS Join}
//	S -> C  ServerHello{key_share}
//	        ... handshake keys installed ...
//	S -> C  EncryptedExtensions{TCPLS Hello, ADDR, SESSID, COOKIE | Join ack}
//	S -> C  Certificate, CertificateVerify          (new sessions only)
//	S -> C  Finished
//	C -> S  Finished
func Client(rw MessageRW, cfg *Config) (*Result, error) {
	priv, err := generateKeyShare()
	if err != nil {
		return nil, err
	}

	ch := &clientHello{
		suites:     offeredSuites,
		serverName: cfg.ServerName,
		keyShare:   priv.PublicKey().Bytes(),
		tcplsHello: cfg.EnableTCPLS || cfg.Join != nil,
	}
	if _, err := io.ReadFull(rand.Reader, ch.random[:]); err != nil {
		return nil, err
	}
	if cfg.Join != nil {
		ch.join = &joinRequest{SessID: cfg.Join.SessID, Cookie: cfg.Join.Cookie, ConnID: cfg.Join.ConnID}
	}
	if len(cfg.PSK) > 0 && len(cfg.PSKTicket) > 0 {
		ch.pskTicket = cfg.PSKTicket
	}
	// 0-RTT: offer early data only when resuming and the transport can
	// seal early records. The flight goes out right behind the CH —
	// before the server has said anything — so the offer is a bet that
	// the server still holds the ticket key.
	edRW, edOK := rw.(earlyDataRW)
	offerEarly := len(cfg.EarlyData) > 0 && len(ch.pskTicket) > 0 && edOK
	ch.earlyData = offerEarly
	chBytes := ch.marshal()
	if err := rw.WriteMessage(chBytes); err != nil {
		return nil, err
	}
	if offerEarly {
		// The early suite is pinned to the client's first offer: the
		// server derives the same key before suite negotiation completes.
		earlySuite, err := record.SuiteByID(offeredSuites[0])
		if err != nil {
			return nil, err
		}
		earlySecret := earlyTrafficSecret(earlySuite, cfg.PSK, chBytes)
		if err := edRW.WriteEarlyData(earlySuite, earlySecret, cfg.EarlyData); err != nil {
			return nil, err
		}
	}

	shBytes, err := rw.ReadMessage()
	if err != nil {
		return nil, err
	}
	typ, body, err := splitMessage(shBytes)
	if err != nil {
		return nil, err
	}
	if typ != typeServerHello {
		return nil, ErrUnexpectedMessage
	}
	sh, err := parseServerHello(body)
	if err != nil {
		return nil, err
	}
	suite, err := pickSuite([]record.SuiteID{sh.suite})
	if err != nil {
		return nil, err
	}

	// The server's PSK echo decides the key-schedule seed: both sides
	// must agree before deriving handshake secrets.
	resumed := sh.pskAccepted && len(cfg.PSK) > 0
	var ks *keySchedule
	if resumed {
		ks = newKeySchedulePSK(suite, cfg.PSK)
	} else {
		ks = newKeySchedule(suite)
	}
	ks.addTranscript(chBytes)
	ks.addTranscript(shBytes)

	shared, err := sharedSecret(priv, sh.keyShare)
	if err != nil {
		return nil, err
	}
	ks.advance(shared) // handshake secret
	clientHS := ks.trafficSecret("c hs traffic")
	serverHS := ks.trafficSecret("s hs traffic")
	if err := rw.SetHandshakeKeys(suite, clientHS, serverHS); err != nil {
		return nil, err
	}

	// EncryptedExtensions.
	eeBytes, err := rw.ReadMessage()
	if err != nil {
		return nil, err
	}
	typ, body, err = splitMessage(eeBytes)
	if err != nil {
		return nil, err
	}
	if typ != typeEncryptedExtensions {
		return nil, ErrUnexpectedMessage
	}
	ee, err := parseEncryptedExtensions(body)
	if err != nil {
		return nil, err
	}
	ks.addTranscript(eeBytes)

	res := &Result{
		TCPLSEnabled: ee.tcplsHello,
		JoinAccepted: ee.joinAck,
		Cookies:      ee.cookies,
		PeerAddrs:    ee.addrs,
	}
	if ee.sessID != nil {
		res.SessID = *ee.sessID
	}
	if cfg.Join != nil {
		if !ee.joinAck {
			return nil, ErrJoinRejected
		}
		res.SessID = cfg.Join.SessID
		res.JoinConnID = cfg.Join.ConnID
	}

	res.Resumed = resumed
	// Early data survives only if the server echoed acceptance AND the
	// PSK actually seeded the key schedule; any other combination means
	// the flight was discarded and the caller must resend at 1-RTT.
	res.EarlyDataAccepted = offerEarly && resumed && ee.earlyAccepted

	// Certificate + CertificateVerify, skipped on joins (possession of
	// the single-use encrypted cookie authenticates the session binding)
	// and on PSK resumption (the PSK authenticates continuity).
	if cfg.Join == nil && !resumed {
		certBytes, err := rw.ReadMessage()
		if err != nil {
			return nil, err
		}
		typ, body, err = splitMessage(certBytes)
		if err != nil {
			return nil, err
		}
		if typ != typeCertificate {
			return nil, ErrUnexpectedMessage
		}
		cert, err := parseCertificate(body)
		if err != nil {
			return nil, err
		}
		ks.addTranscript(certBytes)

		cvBytes, err := rw.ReadMessage()
		if err != nil {
			return nil, err
		}
		typ, body, err = splitMessage(cvBytes)
		if err != nil {
			return nil, err
		}
		if typ != typeCertificateVerify {
			return nil, ErrUnexpectedMessage
		}
		cv, err := parseCertificateVerify(body)
		if err != nil {
			return nil, err
		}
		// The signature covers the transcript up to (and including) the
		// Certificate message.
		pub := ed25519.PublicKey(cert.pubKey)
		if len(pub) != ed25519.PublicKeySize {
			return nil, ErrBadSignature
		}
		if !ed25519.Verify(pub, signatureInput(ks.transcriptHash()), cv.signature) {
			return nil, ErrBadSignature
		}
		if len(cfg.RootKeys) > 0 {
			trusted := false
			for _, k := range cfg.RootKeys {
				if k.Equal(pub) {
					trusted = true
					break
				}
			}
			if !trusted {
				return nil, ErrUntrustedKey
			}
		}
		if cfg.ServerName != "" && cert.name != cfg.ServerName {
			return nil, fmt.Errorf("handshake: server name %q does not match %q", cert.name, cfg.ServerName)
		}
		res.PeerName = cert.name
		ks.addTranscript(cvBytes)
	}

	// Server Finished.
	finBytes, err := rw.ReadMessage()
	if err != nil {
		return nil, err
	}
	typ, body, err = splitMessage(finBytes)
	if err != nil {
		return nil, err
	}
	if typ != typeFinished {
		return nil, ErrUnexpectedMessage
	}
	fin, err := parseFinished(body)
	if err != nil {
		return nil, err
	}
	if !ks.verifyFinished(serverHS, fin.verifyData) {
		return nil, ErrBadFinished
	}
	ks.addTranscript(finBytes)

	// Application secrets are bound to the transcript through the server
	// Finished.
	res.Secrets = deriveAppSecrets(ks)

	// Client Finished.
	cfin := &finishedMsg{verifyData: ks.finishedMAC(clientHS)}
	cfinBytes := cfin.marshal()
	if err := rw.WriteMessage(cfinBytes); err != nil {
		return nil, err
	}
	ks.addTranscript(cfinBytes)
	res.Secrets.Resumption = ks.trafficSecret("res master")
	return res, nil
}

// StartFastJoin writes a single-flight join ClientHello: the caller may
// immediately follow it with engine records protected by the session's
// existing application secrets, making the joining connection productive
// one round trip sooner than Client with cfg.Join. No key exchange
// happens — possession of the single-use cookie authenticates the
// binding, and record protection comes from the already-established
// session keys, so there is nothing for a handshake to derive.
func StartFastJoin(rw MessageRW, cfg *Config) error {
	if cfg.Join == nil {
		return ErrJoinRejected
	}
	ch := &clientHello{
		suites:     offeredSuites,
		tcplsHello: true,
		joinFast:   true,
		join: &joinRequest{
			SessID: cfg.Join.SessID,
			Cookie: cfg.Join.Cookie,
			ConnID: cfg.Join.ConnID,
		},
	}
	if _, err := io.ReadFull(rand.Reader, ch.random[:]); err != nil {
		return err
	}
	return rw.WriteMessage(ch.marshal())
}

// FinishFastJoin reads the server's plaintext join ack. Call after the
// optimistic first flight is on the wire; a rejection means the cookie
// was spent for nothing and the piggybacked records were dropped.
func FinishFastJoin(rw MessageRW) error {
	msg, err := rw.ReadMessage()
	if err != nil {
		return err
	}
	typ, body, err := splitMessage(msg)
	if err != nil {
		return err
	}
	if typ != typeTCPLSJoinAck {
		return ErrUnexpectedMessage
	}
	ack, err := parseJoinAck(body)
	if err != nil {
		return err
	}
	if !ack.accepted {
		return ErrJoinRejected
	}
	return nil
}
