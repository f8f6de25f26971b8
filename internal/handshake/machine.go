package handshake

import (
	"cmp"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"tcpls/internal/record"
	"tcpls/internal/wire"
)

// Machine is one endpoint of one handshake without I/O, in the engine's
// hand-off: Feed takes the bytes read, Flight hands back the bytes to
// write, and once Done, Result holds the secrets and the TCPLS outcome.
// Full, resumed, 0-RTT, join and fast-join handshakes are paths through
// one state table (RFC 8446 §2, paper Fig. 3; DESIGN.md §18):
//
//	client                                  server
//	NewClient: CH [+ 0-RTT, EOED]           waitClientHello
//	waitServerHello                         -> SH, then readEarlyData (0-RTT read)
//	waitEncryptedExtensions                    or EE [Cert CV] Fin
//	waitCertificate, waitCertificateVerify     (full handshakes only)
//	waitServerFinished -> Fin, done         waitClientFinished -> done
//	StartFastJoin: CH{join}, waitJoinAck    waitClientHello -> JoinAck, done
//
// A message out of its state's order, a record the keys do not open, and a
// failed check are typed errors; the machine then stays failed.
type Machine struct {
	cfg   *Config
	state state
	err   error
	res   Result

	in      record.Deframer
	pending []byte                // handshake bytes short of a whole message
	send    *record.StreamContext // nil while the handshake is in plaintext
	recv    *record.StreamContext
	early   *record.StreamContext // server: the 0-RTT key while readEarlyData
	out     []byte                // the flight not yet handed out

	ks       *keySchedule
	priv     *ecdh.PrivateKey // client key share
	ch       []byte           // the ClientHello, as the transcript holds it
	clientHS []byte
	serverHS []byte
	cert     *certificateMsg // client: the Certificate awaiting its CertificateVerify
	offerPSK bool            // client: the hello carries a ticket

	earlyLeft int          // server: 0-RTT plaintext budget left
	earlyKeep bool         // server: the 0-RTT flight is accepted so far
	skip      int          // server: wire bytes of undecryptable 0-RTT records to drop
	kx        func() error // server: the key exchange owed once SH is out
	due       bool         // server: EE [Cert CV] Fin owed, after kx
}

type state uint8

const (
	waitServerHello state = iota
	waitEncryptedExtensions
	waitCertificate
	waitCertificateVerify
	waitServerFinished
	waitJoinAck
	waitClientHello
	readEarlyData
	waitClientFinished
	done
)

// expect is the one message type each waiting state takes.
var expect = [...]uint8{
	waitServerHello:         typeServerHello,
	waitEncryptedExtensions: typeEncryptedExtensions,
	waitCertificate:         typeCertificate,
	waitCertificateVerify:   typeCertificateVerify,
	waitServerFinished:      typeFinished,
	waitJoinAck:             typeTCPLSJoinAck,
	waitClientHello:         typeClientHello,
	waitClientFinished:      typeFinished,
}

// maxPending bounds the bytes held short of a whole handshake message; a
// larger announcement is ErrDecode. Honest messages are a few KiB.
const maxPending = 64 << 10

// NewClient starts the client side of a full, resumed, 0-RTT or join
// handshake. Its first flight is ready in Flight at once: the ClientHello
// and, when resuming with EarlyData, the 0-RTT records and EndOfEarlyData
// sealed under the early key, a bet that the server still holds the
// ticket key.
func NewClient(cfg *Config) (*Machine, error) { return newClient(cfg, false) }

// NewFastJoin starts the client side of a single-flight join (cfg.Join):
// its Flight is the hello alone, which the caller may send in one write
// with engine records under the session's established keys; the server's
// plaintext ack ends it.
func NewFastJoin(cfg *Config) (*Machine, error) {
	if cfg.Join == nil {
		return nil, ErrJoinRejected
	}
	return newClient(cfg, true)
}

// newClient with fast starts a single-flight join (StartFastJoin).
func newClient(cfg *Config, fast bool) (*Machine, error) {
	m := &Machine{cfg: cfg, state: waitServerHello}
	ch := &clientHello{suites: offeredSuites, tcplsHello: cfg.EnableTCPLS || cfg.Join != nil, joinFast: fast}
	if _, err := io.ReadFull(rand.Reader, ch.random[:]); err != nil {
		return nil, err
	}
	if cfg.Join != nil {
		ch.join = &joinRequest{SessID: cfg.Join.SessID, Cookie: cfg.Join.Cookie, ConnID: cfg.Join.ConnID}
	}
	if fast {
		m.state = waitJoinAck
		return m, m.writePlain(ch.marshal())
	}
	var err error
	if m.priv, err = generateKeyShare(); err != nil {
		return nil, err
	}
	ch.serverName, ch.keyShare = cfg.ServerName, m.priv.PublicKey().Bytes()
	if len(cfg.PSK) > 0 && len(cfg.PSKTicket) > 0 {
		ch.pskTicket = cfg.PSKTicket
	}
	m.offerPSK = len(ch.pskTicket) > 0
	ch.earlyData = len(cfg.EarlyData) > 0 && m.offerPSK
	m.ch = ch.marshal()
	if err := m.writePlain(m.ch); err != nil || !ch.earlyData {
		return m, err
	}
	// The early suite is pinned to the first offer: the server derives the
	// same key before suite negotiation completes.
	suite, err := record.SuiteByID(offeredSuites[0])
	if err != nil {
		return nil, err
	}
	ctx, err := trafficContext(suite, earlyTrafficSecret(suite, cfg.PSK, m.ch))
	if err == nil {
		err = m.seal(ctx, record.ContentTypeApplicationData, cfg.EarlyData)
	}
	if err == nil {
		err = m.seal(ctx, record.ContentTypeHandshake, endOfEarlyData())
	}
	return m, err
}

// NewServer starts the server side; it waits for a ClientHello.
func NewServer(cfg *Config) *Machine {
	return &Machine{cfg: cfg, state: waitClientHello}
}

// Feed takes bytes read from the connection: every whole record, and a
// copy of a partial one, so p may be reused. Bytes past the handshake's
// last record stay for Leftover. The first error is sticky.
func (m *Machine) Feed(p []byte) error {
	if m.err != nil {
		return m.err
	}
	m.in.Feed(p)
	for m.err == nil && m.state != done {
		rec, ok, err := m.in.Next()
		if err != nil || !ok {
			m.err = err
			break
		}
		m.err = m.record(rec)
	}
	m.in.Compact()
	return m.err
}

// Flight returns and forgets the next bytes to write; call it until it
// returns nothing. A server hands out its ServerHello before its key
// exchange and the rest of its flight, so the client's key exchange runs
// beside the server's. A failed machine may still hold one flight (a fast
// join's rejection), owed to the peer.
func (m *Machine) Flight() []byte {
	if len(m.out) == 0 && m.err == nil {
		m.err = m.advance()
	}
	out := m.out
	m.out = nil
	return out
}

// Done reports that the handshake finished; Result then holds its outcome.
func (m *Machine) Done() bool { return m.state == done }

// Err is the error that failed the machine, or nil.
func (m *Machine) Err() error { return m.err }

// Result is the handshake's outcome, nil until Done.
func (m *Machine) Result() *Result {
	if m.state != done {
		return nil
	}
	return &m.res
}

// Leftover returns the bytes read behind the handshake's last record:
// the peer's first engine records, for the session layer.
func (m *Machine) Leftover() []byte { return m.in.Drain() }

// writePlain queues msg in a plaintext handshake record, as TLS sends its
// hellos: what middleboxes inspect (§5.2).
func (m *Machine) writePlain(msg []byte) error {
	if len(msg) > record.MaxPlaintextLen {
		return ErrPlaintextTooLarge
	}
	m.out = append(m.out, record.ContentTypeHandshake, 0x03, 0x03, byte(len(msg)>>8), byte(len(msg)))
	m.out = append(m.out, msg...)
	return nil
}

// seal queues data under ctx, in as few records as the record size allows.
func (m *Machine) seal(ctx *record.StreamContext, ct uint8, data []byte) error {
	for len(data) > 0 {
		n := min(len(data), record.MaxPlaintextLen)
		var err error
		if m.out, err = ctx.Seal(m.out, ct, data[:n], 0); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// ErrPlaintextTooLarge guards the plaintext handshake phase.
var ErrPlaintextTooLarge = errors.New("handshake: message exceeds record size")

// record takes one wire record (0-RTT, plaintext before the key
// exchange, or sealed after it); whole messages then advance the state.
func (m *Machine) record(rec []byte) error {
	if m.state == readEarlyData {
		return m.earlyRecord(rec)
	}
	if m.kx != nil { // this record needs the handshake keys
		if err := m.advance(); err != nil {
			return err
		}
	}
	switch {
	case m.recv == nil:
		if rec[0] != record.ContentTypeHandshake {
			return fmt.Errorf("%w: record type %d during the plaintext phase", ErrUnexpectedMessage, rec[0])
		}
		m.pending = append(m.pending, rec[record.HeaderLen:]...)
	default:
		ct, content, err := m.recv.Open(rec)
		if err != nil {
			// Trial skip of a 0-RTT flight whose PSK did not open: a
			// failed Open keeps the sequence, so the Finished still opens.
			if errors.Is(err, record.ErrDecrypt) && m.skip >= len(rec) {
				m.skip -= len(rec)
				return nil
			}
			return err
		}
		if ct != record.ContentTypeHandshake {
			return fmt.Errorf("%w: inner type %d", ErrUnexpectedMessage, ct)
		}
		m.pending = append(m.pending, content...)
	}
	for m.state != done && m.state != readEarlyData && len(m.pending) >= 4 {
		total := 4 + int(wire.Uint24(m.pending[1:4]))
		if total > maxPending {
			return ErrDecode
		}
		if len(m.pending) < total {
			break
		}
		msg := append([]byte(nil), m.pending[:total]...)
		m.pending = m.pending[total:]
		if err := m.message(msg); err != nil {
			return err
		}
	}
	return nil
}

// message advances the state by one handshake message.
func (m *Machine) message(msg []byte) error {
	typ, body, err := splitMessage(msg)
	if err != nil {
		return err
	}
	if typ != expect[m.state] {
		return fmt.Errorf("%w: type %d while waiting for %d", ErrUnexpectedMessage, typ, expect[m.state])
	}
	switch m.state {
	case waitServerHello:
		return m.serverHello(msg, body)
	case waitEncryptedExtensions:
		return m.encryptedExtensions(msg, body)
	case waitCertificate:
		if m.cert, err = parseCertificate(body); err != nil {
			return err
		}
		m.ks.addTranscript(msg)
		m.state = waitCertificateVerify
		return nil
	case waitCertificateVerify:
		return m.certificateVerify(msg, body)
	case waitServerFinished:
		return m.serverFinished(msg, body)
	case waitJoinAck:
		if len(body) != 1 || body[0] > 1 {
			return ErrDecode
		}
		if body[0] == 0 {
			return ErrJoinRejected
		}
		m.state = done
		return nil
	case waitClientHello:
		return m.clientHello(msg, body)
	case waitClientFinished:
		if !m.ks.verifyFinished(m.clientHS, body) {
			return ErrBadFinished
		}
		m.ks.addTranscript(msg)
		m.res.Secrets.Resumption = m.ks.trafficSecret("res master")
		m.state = done
		return nil
	}
	return ErrUnexpectedMessage
}

// keyExchange is the step both sides share once ClientHello and
// ServerHello are known: the key schedule seeded with psk (nil for none),
// the ECDHE secret, the handshake traffic secrets, and the switch of both
// directions to them (stream ID 0, as TLS 1.3 itself).
func (m *Machine) keyExchange(suite *record.Suite, psk []byte, priv *ecdh.PrivateKey, peerShare, sh []byte, server bool) error {
	m.ks = newKeySchedulePSK(suite, psk)
	m.ks.addTranscript(m.ch)
	m.ks.addTranscript(sh)
	shared, err := sharedSecret(priv, peerShare)
	if err != nil {
		return err
	}
	m.ks.advance(shared) // handshake secret
	m.clientHS = m.ks.trafficSecret("c hs traffic")
	m.serverHS = m.ks.trafficSecret("s hs traffic")
	send, recv := m.clientHS, m.serverHS
	if server {
		send, recv = recv, send
	}
	if m.send, err = trafficContext(suite, send); err != nil {
		return err
	}
	m.recv, err = trafficContext(suite, recv)
	return err
}

// trafficContext builds the stream-0 record context for a traffic
// secret: the 0-RTT key, or a handshake key.
func trafficContext(suite *record.Suite, secret []byte) (*record.StreamContext, error) {
	key, iv := record.DeriveTrafficKeys(suite, secret)
	return record.NewStreamContext(suite, key, iv, 0)
}

// --- client states ---

func (m *Machine) serverHello(msg, body []byte) error {
	sh, err := parseServerHello(body)
	if err != nil {
		return err
	}
	suite, err := pickSuite([]record.SuiteID{sh.suite})
	if err != nil {
		return err
	}
	// The server's PSK echo decides the key-schedule seed: both sides
	// must agree before deriving handshake secrets.
	var psk []byte
	if sh.pskAccepted && m.offerPSK {
		psk = m.cfg.PSK
	}
	m.res.Resumed = psk != nil
	m.state = waitEncryptedExtensions
	if len(m.pending) > 0 {
		return errKeyBoundary
	}
	return m.keyExchange(suite, psk, m.priv, sh.keyShare, msg, false)
}

// errKeyBoundary: keys change at a message boundary only, and bytes still
// pending belong to no key.
var errKeyBoundary = fmt.Errorf("%w: handshake bytes across the key change", ErrUnexpectedMessage)

func (m *Machine) encryptedExtensions(msg, body []byte) error {
	ee, err := parseEncryptedExtensions(body)
	if err != nil {
		return err
	}
	m.ks.addTranscript(msg)
	m.res.TCPLSEnabled = ee.tcplsHello
	m.res.JoinAccepted = ee.joinAck
	m.res.Cookies = ee.cookies
	m.res.PeerAddrs = ee.addrs
	if ee.sessID != nil {
		m.res.SessID = *ee.sessID
	}
	if j := m.cfg.Join; j != nil {
		if !ee.joinAck {
			return ErrJoinRejected
		}
		m.res.SessID = j.SessID
		m.res.JoinConnID = j.ConnID
	}
	// Early data survives only if the server echoed acceptance and the PSK
	// seeded the key schedule; anything else means the flight was
	// discarded and the caller resends it at 1-RTT.
	m.res.EarlyDataAccepted = len(m.cfg.EarlyData) > 0 && m.offerPSK && m.res.Resumed && ee.earlyAccepted
	// Joins (the single-use cookie binds the session) and resumptions (the
	// PSK authenticates continuity) skip the certificate exchange.
	m.state = waitCertificate
	if m.cfg.Join != nil || m.res.Resumed {
		m.state = waitServerFinished
	}
	return nil
}

func (m *Machine) certificateVerify(msg, body []byte) error {
	sig, err := parseCertificateVerify(body)
	if err != nil {
		return err
	}
	// The signature covers the transcript through the Certificate.
	pub := ed25519.PublicKey(m.cert.pubKey)
	if len(pub) != ed25519.PublicKeySize || !ed25519.Verify(pub, signatureInput(m.ks.transcriptHash()), sig) {
		return ErrBadSignature
	}
	if len(m.cfg.RootKeys) > 0 {
		trusted := false
		for _, k := range m.cfg.RootKeys {
			trusted = trusted || k.Equal(pub)
		}
		if !trusted {
			return ErrUntrustedKey
		}
	}
	if m.cfg.ServerName != "" && m.cert.name != m.cfg.ServerName {
		return fmt.Errorf("handshake: server name %q does not match %q", m.cert.name, m.cfg.ServerName)
	}
	m.ks.addTranscript(msg)
	m.state = waitServerFinished
	return nil
}

func (m *Machine) serverFinished(msg, body []byte) error {
	if !m.ks.verifyFinished(m.serverHS, body) {
		return ErrBadFinished
	}
	m.ks.addTranscript(msg)
	// The application secrets bind the transcript through the server
	// Finished.
	m.res.Secrets = deriveAppSecrets(m.ks)
	cfin := wrap(typeFinished, m.ks.finishedMAC(m.clientHS))
	if err := m.seal(m.send, record.ContentTypeHandshake, cfin); err != nil {
		return err
	}
	m.ks.addTranscript(cfin)
	m.res.Secrets.Resumption = m.ks.trafficSecret("res master")
	m.state = done
	return nil
}

// --- server states ---

func (m *Machine) clientHello(msg, body []byte) error {
	cfg := m.cfg
	ch, err := parseClientHello(body)
	if err != nil {
		return err
	}
	if ch.earlyData && (len(ch.pskTicket) == 0 || ch.join != nil) {
		// 0-RTT needs a ticket to key it; a join has its session's keys.
		return fmt.Errorf("%w: early data on a hello that cannot resume", ErrUnexpectedMessage)
	}

	// Single-flight join: the cookie earns a plaintext ack, and the
	// engine records behind the hello (Leftover) use the session's keys.
	if ch.join != nil && ch.joinFast {
		accepted := cfg.Sessions != nil && cfg.Sessions.ValidateJoin(ch.join.SessID, ch.join.Cookie)
		if err := m.writePlain(joinAck(accepted)); err != nil {
			return err
		}
		if !accepted {
			return ErrJoinRejected
		}
		m.res = Result{TCPLSEnabled: true, JoinAccepted: true, FastJoin: true, SessID: ch.join.SessID, JoinConnID: ch.join.ConnID}
		m.state = done
		return nil
	}

	suite, err := pickSuite(ch.suites)
	if err != nil {
		return err
	}
	// An invalid cookie rejects the connection outright: a client that
	// guessed a session ID learns nothing but "handshake failed".
	if ch.join != nil {
		if cfg.Sessions == nil || !cfg.Sessions.ValidateJoin(ch.join.SessID, ch.join.Cookie) {
			return ErrJoinRejected
		}
		m.res.JoinAccepted = true
		m.res.SessID = ch.join.SessID
		m.res.JoinConnID = ch.join.ConnID
	}
	// PSK resumption: a ticket that does not open falls back to a full
	// handshake (the client notices the missing echo).
	var psk []byte
	if len(ch.pskTicket) > 0 && cfg.DecryptTicket != nil && ch.join == nil {
		if p, ok := cfg.DecryptTicket(ch.pskTicket); ok {
			psk = p
		}
	}
	m.res.Resumed = psk != nil
	m.res.TCPLSEnabled = cfg.TCPLSServer && ch.tcplsHello

	priv, err := generateKeyShare()
	if err != nil {
		return err
	}
	sh := &serverHello{sessionID: ch.sessionID, suite: suite.ID, keyShare: priv.PublicKey().Bytes(), pskAccepted: psk != nil}
	if _, err := io.ReadFull(rand.Reader, sh.random[:]); err != nil {
		return err
	}
	shBytes := sh.marshal()
	m.ch = msg
	if len(m.pending) > 0 {
		return errKeyBoundary
	}
	if err := m.writePlain(shBytes); err != nil {
		return err
	}
	// The server's ECDHE waits until its ServerHello is out (Flight) or a
	// record needs the handshake keys, so the client's runs beside it.
	m.kx = func() error { return m.keyExchange(suite, psk, priv, ch.keyShare, shBytes, true) }

	// 0-RTT, sealed under the client's first suite: readable with the PSK,
	// accepted with a budget and the anti-replay hook's consent. A refused
	// flight is read and dropped; an unreadable one skipped, bounded.
	if !ch.earlyData {
		m.due, m.state = true, waitClientFinished
		return nil
	}
	budget := EarlyDataBudget(cfg.MaxEarlyData)
	earlySuite, serr := record.SuiteByID(ch.suites[0])
	if psk == nil || serr != nil {
		m.skip = max(budget, defaultMaxEarlyData) + 4096 // sealing overhead rides on the plaintext cap
		m.due, m.state = true, waitClientFinished
		return nil
	}
	m.earlyKeep = m.res.TCPLSEnabled && budget > 0 && (cfg.AcceptEarlyData == nil || cfg.AcceptEarlyData(ch.pskTicket))
	if budget == 0 {
		budget = defaultMaxEarlyData // the discard path of MaxEarlyData < 0
	}
	m.earlyLeft = budget
	if m.early, err = trafficContext(earlySuite, earlyTrafficSecret(earlySuite, psk, msg)); err != nil {
		return err
	}
	m.state = readEarlyData
	return nil
}

// earlyRecord takes one record of the 0-RTT flight. Past the budget the
// flight is retracted and drained (within earlyOverflowSlack), and
// EncryptedExtensions tells the client to resend at 1-RTT.
func (m *Machine) earlyRecord(rec []byte) error {
	ct, content, err := m.early.Open(rec)
	if err != nil {
		return err
	}
	switch ct {
	case record.ContentTypeApplicationData:
		m.earlyLeft -= len(content)
		if m.earlyLeft < -earlyOverflowSlack {
			return ErrEarlyDataOverflow
		}
		if m.earlyLeft < 0 {
			m.earlyKeep, m.res.EarlyData = false, nil
		}
		if m.earlyKeep {
			m.res.EarlyData = append(m.res.EarlyData, content...)
		}
		return nil
	case record.ContentTypeHandshake:
		typ, _, err := splitMessage(content)
		if err != nil {
			return err
		}
		if typ != typeEndOfEarlyData {
			return fmt.Errorf("%w: type %d in the 0-RTT flight", ErrUnexpectedMessage, typ)
		}
		m.early, m.res.EarlyDataAccepted = nil, m.earlyKeep
		m.due, m.state = true, waitClientFinished
		return nil
	}
	return fmt.Errorf("%w: inner type %d in the 0-RTT flight", ErrUnexpectedMessage, ct)
}

// earlyOverflowSlack bounds the drain past the 0-RTT budget: it costs no
// memory, but an unbounded one would let a client pin the connection.
const earlyOverflowSlack = 1 << 20

// advance does the server's work owed once its ServerHello is out: the
// key exchange, then, with any 0-RTT flight read, the rest of its flight.
func (m *Machine) advance() error {
	if kx := m.kx; kx != nil {
		m.kx = nil
		if err := kx(); err != nil {
			return err
		}
	}
	if !m.due {
		return nil
	}
	m.due = false
	return m.serverFlight()
}

// serverFlight queues EncryptedExtensions, the certificate pair on a full
// handshake, and the server Finished, in one sealed flight.
func (m *Machine) serverFlight() error {
	cfg := m.cfg
	ee := &encryptedExtensions{tcplsHello: m.res.TCPLSEnabled, earlyAccepted: m.res.EarlyDataAccepted}
	switch {
	case m.res.JoinAccepted:
		ee.joinAck = true
	case m.res.TCPLSEnabled:
		// A new TCPLS session: its identifier and the initial cookie
		// budget (Fig. 3's α and β_1..β_n).
		if _, err := io.ReadFull(rand.Reader, m.res.SessID[:]); err != nil {
			return err
		}
		ee.sessID = &m.res.SessID
		ee.cookies = make([]Cookie, cmp.Or(max(cfg.NumCookies, 0), 2))
		for i := range ee.cookies {
			if _, err := io.ReadFull(rand.Reader, ee.cookies[i][:]); err != nil {
				return err
			}
		}
		m.res.Cookies = ee.cookies
		ee.addrs = cfg.AdvertiseAddrs
		m.res.PeerAddrs = cfg.AdvertiseAddrs
		if cfg.OnSessionIssued != nil {
			cfg.OnSessionIssued(m.res.SessID, ee.cookies)
		}
	}
	flight := ee.marshal()
	m.ks.addTranscript(flight)
	if !m.res.JoinAccepted && !m.res.Resumed {
		if cfg.Certificate == nil {
			return ErrNoCertificate
		}
		cert := (&certificateMsg{name: cfg.Certificate.Name, pubKey: cfg.Certificate.Public}).marshal()
		m.ks.addTranscript(cert)
		cv := wrap(typeCertificateVerify, wire.AppendVector16(nil, ed25519.Sign(cfg.Certificate.Private, signatureInput(m.ks.transcriptHash()))))
		m.ks.addTranscript(cv)
		flight = append(append(flight, cert...), cv...)
	}
	fin := wrap(typeFinished, m.ks.finishedMAC(m.serverHS))
	m.ks.addTranscript(fin)
	flight = append(flight, fin...)
	if err := m.seal(m.send, record.ContentTypeHandshake, flight); err != nil {
		return err
	}
	m.res.Secrets = deriveAppSecrets(m.ks)
	return nil
}
