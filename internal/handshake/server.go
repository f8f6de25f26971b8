package handshake

import (
	"crypto/rand"
	"io"

	"tcpls/internal/record"
)

// Server runs the server side of the TCPLS handshake over rw.
// See Client for the message flow.
func Server(rw MessageRW, cfg *Config) (*Result, error) {
	chBytes, err := rw.ReadMessage()
	if err != nil {
		return nil, err
	}
	typ, body, err := splitMessage(chBytes)
	if err != nil {
		return nil, err
	}
	if typ != typeClientHello {
		return nil, ErrUnexpectedMessage
	}
	ch, err := parseClientHello(body)
	if err != nil {
		return nil, err
	}

	// Single-flight join: validate the cookie and answer with a plaintext
	// ack — no key exchange, no suite negotiation. The client's engine
	// records ride directly behind its ClientHello (they surface via
	// Leftover) and are protected by the session's existing application
	// secrets, so the connection is productive one round trip sooner.
	if ch.join != nil && ch.joinFast {
		accepted := cfg.Sessions != nil && cfg.Sessions.ValidateJoin(ch.join.SessID, ch.join.Cookie)
		ack := &joinAckMsg{accepted: accepted}
		if err := rw.WriteMessage(ack.marshal()); err != nil {
			return nil, err
		}
		if !accepted {
			return nil, ErrJoinRejected
		}
		return &Result{
			TCPLSEnabled: true,
			JoinAccepted: true,
			FastJoin:     true,
			SessID:       ch.join.SessID,
			JoinConnID:   ch.join.ConnID,
		}, nil
	}

	suite, err := pickSuite(ch.suites)
	if err != nil {
		return nil, err
	}

	// Evaluate a join request before committing to the handshake shape.
	// An invalid cookie rejects the connection outright: a client that
	// guessed a session ID learns nothing but "handshake failed".
	isJoin := false
	var joinID SessID
	var joinConnID uint32
	if ch.join != nil {
		if cfg.Sessions == nil || !cfg.Sessions.ValidateJoin(ch.join.SessID, ch.join.Cookie) {
			return nil, ErrJoinRejected
		}
		isJoin = true
		joinID = ch.join.SessID
		joinConnID = ch.join.ConnID
	}

	// PSK resumption: recover the PSK from the ticket; failure falls
	// back to a full handshake (the client notices via the missing echo).
	var psk []byte
	if len(ch.pskTicket) > 0 && cfg.DecryptTicket != nil && !isJoin {
		if p, ok := cfg.DecryptTicket(ch.pskTicket); ok {
			psk = p
		}
	}

	priv, err := generateKeyShare()
	if err != nil {
		return nil, err
	}
	sh := &serverHello{
		sessionID:   ch.sessionID,
		suite:       suite.ID,
		keyShare:    priv.PublicKey().Bytes(),
		pskAccepted: psk != nil,
	}
	if _, err := io.ReadFull(rand.Reader, sh.random[:]); err != nil {
		return nil, err
	}
	shBytes := sh.marshal()
	if err := rw.WriteMessage(shBytes); err != nil {
		return nil, err
	}

	ks := newKeySchedulePSK(suite, psk)
	ks.addTranscript(chBytes)
	ks.addTranscript(shBytes)

	shared, err := sharedSecret(priv, ch.keyShare)
	if err != nil {
		return nil, err
	}
	ks.advance(shared)
	clientHS := ks.trafficSecret("c hs traffic")
	serverHS := ks.trafficSecret("s hs traffic")
	if err := rw.SetHandshakeKeys(suite, serverHS, clientHS); err != nil {
		return nil, err
	}

	tcpls := cfg.TCPLSServer && ch.tcplsHello
	res := &Result{TCPLSEnabled: tcpls, JoinAccepted: isJoin, Resumed: psk != nil}

	// 0-RTT disposition. The early flight is sealed under the client's
	// first-offered suite (negotiation has not happened when it is sent),
	// so we can read it only when we recovered the PSK, support that
	// suite, and the transport exposes early-record access. Acceptance is
	// stricter still: a positive budget and a green light from the
	// anti-replay hook. Readable-but-rejected flights are decrypted and
	// discarded; unreadable ones are skipped byte-bounded.
	edRW, edOK := rw.(earlyDataRW)
	var earlySuite *record.Suite
	if ch.earlyData && len(ch.suites) > 0 {
		if s, err := record.SuiteByID(ch.suites[0]); err == nil {
			earlySuite = s
		}
	}
	canReadEarly := ch.earlyData && psk != nil && edOK && earlySuite != nil
	acceptEarly := canReadEarly && tcpls && cfg.maxEarlyData() > 0 &&
		(cfg.AcceptEarlyData == nil || cfg.AcceptEarlyData(ch.pskTicket))

	// Drain the early flight BEFORE EncryptedExtensions so the verdict in
	// EE is truthful: a flight that overflows the budget retracts
	// acceptance here, the client sees earlyAccepted=false and resends at
	// 1-RTT — a config mismatch degrades to a slower round trip, never a
	// failed connection. Safe to read now: the client wrote its whole
	// first flight (ClientHello, early records, EndOfEarlyData) before
	// reading a single server byte.
	var earlyData []byte
	switch {
	case canReadEarly:
		budget := cfg.maxEarlyData()
		if budget == 0 {
			budget = defaultMaxEarlyData // discard path with MaxEarlyData < 0
		}
		earlySecret := earlyTrafficSecret(earlySuite, psk, chBytes)
		data, overflow, err := edRW.ReadEarlyData(earlySuite, earlySecret, budget, !acceptEarly)
		if err != nil {
			return nil, err
		}
		if overflow {
			acceptEarly = false
		}
		if acceptEarly {
			earlyData = data
		}
	case ch.earlyData && edOK:
		// PSK not recovered (or suite unsupported): the early records are
		// noise we cannot decrypt. Skip them within a bounded budget —
		// sealing overhead rides on top of the plaintext cap.
		budget := cfg.maxEarlyData()
		if budget < defaultMaxEarlyData {
			budget = defaultMaxEarlyData
		}
		edRW.SkipUndecryptable(budget + 4096)
	}
	if acceptEarly {
		res.EarlyDataAccepted = true
		res.EarlyData = earlyData
	}

	ee := &encryptedExtensions{tcplsHello: tcpls, earlyAccepted: acceptEarly}
	switch {
	case isJoin:
		ee.joinAck = true
		res.SessID = joinID
		res.JoinConnID = joinConnID
	case tcpls:
		// New TCPLS session: mint the session identifier and the initial
		// cookie budget (Fig. 3's α and β_1..β_n).
		var id SessID
		if _, err := io.ReadFull(rand.Reader, id[:]); err != nil {
			return nil, err
		}
		ee.sessID = &id
		res.SessID = id
		for i := 0; i < cfg.numCookies(); i++ {
			var c Cookie
			if _, err := io.ReadFull(rand.Reader, c[:]); err != nil {
				return nil, err
			}
			ee.cookies = append(ee.cookies, c)
		}
		res.Cookies = ee.cookies
		ee.addrs = cfg.AdvertiseAddrs
		res.PeerAddrs = cfg.AdvertiseAddrs
		if cfg.OnSessionIssued != nil {
			cfg.OnSessionIssued(id, ee.cookies)
		}
	}
	eeBytes := ee.marshal()
	if err := rw.WriteMessage(eeBytes); err != nil {
		return nil, err
	}
	ks.addTranscript(eeBytes)

	if !isJoin && psk == nil {
		if cfg.Certificate == nil {
			return nil, ErrNoCertificate
		}
		cert := &certificateMsg{name: cfg.Certificate.Name, pubKey: cfg.Certificate.Public}
		certBytes := cert.marshal()
		if err := rw.WriteMessage(certBytes); err != nil {
			return nil, err
		}
		ks.addTranscript(certBytes)

		sig := signCertificateVerify(cfg.Certificate, ks.transcriptHash())
		cvBytes := (&certificateVerify{signature: sig}).marshal()
		if err := rw.WriteMessage(cvBytes); err != nil {
			return nil, err
		}
		ks.addTranscript(cvBytes)
	}

	fin := &finishedMsg{verifyData: ks.finishedMAC(serverHS)}
	finBytes := fin.marshal()
	if err := rw.WriteMessage(finBytes); err != nil {
		return nil, err
	}
	ks.addTranscript(finBytes)

	res.Secrets = deriveAppSecrets(ks)

	// Client Finished.
	cfinBytes, err := rw.ReadMessage()
	if err != nil {
		return nil, err
	}
	typ, body, err = splitMessage(cfinBytes)
	if err != nil {
		return nil, err
	}
	if typ != typeFinished {
		return nil, ErrUnexpectedMessage
	}
	cfin, err := parseFinished(body)
	if err != nil {
		return nil, err
	}
	if !ks.verifyFinished(clientHS, cfin.verifyData) {
		return nil, ErrBadFinished
	}
	ks.addTranscript(cfinBytes)
	res.Secrets.Resumption = ks.trafficSecret("res master")
	return res, nil
}

func signCertificateVerify(cert *Certificate, transcriptHash []byte) []byte {
	return ed25519Sign(cert, signatureInput(transcriptHash))
}
