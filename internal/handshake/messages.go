package handshake

import (
	"errors"
	"fmt"
	"net/netip"

	"tcpls/internal/record"
	"tcpls/internal/wire"
)

// Handshake message types (RFC 8446 §4).
const (
	typeClientHello         = 1
	typeServerHello         = 2
	typeEndOfEarlyData      = 5
	typeEncryptedExtensions = 8
	typeCertificate         = 11
	typeCertificateVerify   = 15
	typeFinished            = 20
	// typeTCPLSJoinAck is the private-use single-flight join answer: it
	// travels in plaintext (like the join request it answers) so the
	// joining connection needs no key exchange of its own — its record
	// protection comes from the session's application secrets.
	typeTCPLSJoinAck = 250
)

// Extension codepoints. The TCPLS extensions use the private-use range;
// their numbers match this repository only (the paper's prototype likewise
// picked experimental codepoints). 0xfa05 is unassigned: a received one
// is ignored like any unknown extension.
const (
	extServerName        = 0
	extSupportedVersions = 43
	extKeyShare          = 51
	extTCPLSHello        = 0xfa00
	extTCPLSJoin         = 0xfa01
	extTCPLSAddr         = 0xfa02
	extTCPLSSessID       = 0xfa03
	extTCPLSCookie       = 0xfa04
	extTCPLSPSK          = 0xfa06
	extTCPLSEarlyData    = 0xfa07
	extTCPLSJoinFast     = 0xfa08
)

// Sizes of TCPLS session identifiers and join cookies.
const (
	SessIDLen = 16
	CookieLen = 16
)

// ErrDecode is returned for any malformed handshake message.
var ErrDecode = errors.New("handshake: malformed message")

// SessID identifies a TCPLS session on the server (paper Fig. 3's α).
type SessID [SessIDLen]byte

// Cookie is a single-use token authorizing one connection join (β_i).
type Cookie [CookieLen]byte

// extension is a raw TLS extension.
type extension struct {
	typ  uint16
	data []byte
}

func appendExtensions(b []byte, exts []extension) []byte {
	lenPos := len(b)
	b = wire.AppendUint16(b, 0)
	for _, e := range exts {
		b = wire.AppendUint16(b, e.typ)
		b = wire.AppendVector16(b, e.data)
	}
	total := len(b) - lenPos - 2
	b[lenPos] = byte(total >> 8)
	b[lenPos+1] = byte(total)
	return b
}

func parseExtensions(r *wire.Reader) ([]extension, error) {
	block := r.Vector16()
	if r.Err() != nil {
		return nil, ErrDecode
	}
	er := wire.NewReader(block)
	var exts []extension
	for er.Len() > 0 {
		typ := er.Uint16()
		data := er.Vector16()
		if er.Err() != nil {
			return nil, ErrDecode
		}
		exts = append(exts, extension{typ, data})
	}
	return exts, nil
}

func findExtension(exts []extension, typ uint16) ([]byte, bool) {
	for _, e := range exts {
		if e.typ == typ {
			return e.data, true
		}
	}
	return nil, false
}

// wrap prepends the 4-byte handshake message header (type + 24-bit len).
func wrap(msgType uint8, body []byte) []byte {
	out := make([]byte, 0, 4+len(body))
	out = wire.AppendUint8(out, msgType)
	out = wire.AppendVector24(out, body)
	return out
}

// splitMessage validates the handshake header and returns type and body.
func splitMessage(msg []byte) (uint8, []byte, error) {
	r := wire.NewReader(msg)
	typ := r.Uint8()
	body := r.Vector24()
	if r.Err() != nil || !r.Empty() {
		return 0, nil, ErrDecode
	}
	return typ, body, nil
}

// joinRequest is the TCPLS JOIN extension payload (Fig. 3): the session
// identifier, one unused cookie, and the client-chosen connection ID so
// both endpoints number the joined connection identically.
type joinRequest struct {
	SessID SessID
	Cookie Cookie
	ConnID uint32
}

func (j *joinRequest) marshal() []byte {
	b := make([]byte, 0, SessIDLen+CookieLen+4)
	b = append(b, j.SessID[:]...)
	b = append(b, j.Cookie[:]...)
	return wire.AppendUint32(b, j.ConnID)
}

func parseJoinRequest(data []byte) (*joinRequest, error) {
	if len(data) != SessIDLen+CookieLen+4 {
		return nil, ErrDecode
	}
	var j joinRequest
	copy(j.SessID[:], data[:SessIDLen])
	copy(j.Cookie[:], data[SessIDLen:SessIDLen+CookieLen])
	j.ConnID = wire.Uint32(data[SessIDLen+CookieLen:])
	return &j, nil
}

// clientHello mirrors the TLS 1.3 ClientHello with the fields this
// implementation uses.
type clientHello struct {
	random     [32]byte
	sessionID  []byte // legacy, echoed
	suites     []record.SuiteID
	serverName string
	keyShare   []byte // X25519 public key
	tcplsHello bool
	join       *joinRequest
	joinFast   bool   // single-flight join: data follows this CH immediately
	pskTicket  []byte // resumption ticket (PSK mode, §4.5)
	earlyData  bool   // 0-RTT offer: early records follow this CH
}

func (m *clientHello) marshal() []byte {
	var b []byte
	b = wire.AppendUint16(b, 0x0303) // legacy_version
	b = append(b, m.random[:]...)
	b = wire.AppendVector8(b, m.sessionID)
	// cipher_suites
	suites := make([]byte, 0, 2*len(m.suites))
	for _, s := range m.suites {
		suites = wire.AppendUint16(suites, uint16(s))
	}
	b = wire.AppendVector16(b, suites)
	b = wire.AppendVector8(b, []byte{0}) // legacy_compression_methods: null

	exts := []extension{
		{extSupportedVersions, []byte{2, 0x03, 0x04}},
		{extKeyShare, m.keyShare},
	}
	if m.serverName != "" {
		exts = append(exts, extension{extServerName, []byte(m.serverName)})
	}
	if m.tcplsHello {
		exts = append(exts, extension{extTCPLSHello, nil})
	}
	if m.join != nil {
		exts = append(exts, extension{extTCPLSJoin, m.join.marshal()})
	}
	if m.joinFast {
		exts = append(exts, extension{extTCPLSJoinFast, nil})
	}
	if len(m.pskTicket) > 0 {
		exts = append(exts, extension{extTCPLSPSK, m.pskTicket})
	}
	if m.earlyData {
		exts = append(exts, extension{extTCPLSEarlyData, nil})
	}
	b = appendExtensions(b, exts)
	return wrap(typeClientHello, b)
}

func parseClientHello(body []byte) (*clientHello, error) {
	m := &clientHello{}
	r := wire.NewReader(body)
	if v := r.Uint16(); v != 0x0303 {
		return nil, fmt.Errorf("%w: legacy version %#x", ErrDecode, v)
	}
	copy(m.random[:], r.Bytes(32))
	m.sessionID = r.Vector8()
	suiteBytes := r.Vector16()
	r.Vector8() // compression methods
	if r.Err() != nil {
		return nil, ErrDecode
	}
	sr := wire.NewReader(suiteBytes)
	for sr.Len() >= 2 {
		m.suites = append(m.suites, record.SuiteID(sr.Uint16()))
	}
	exts, err := parseExtensions(r)
	if err != nil || !r.Empty() {
		return nil, ErrDecode
	}
	if data, ok := findExtension(exts, extKeyShare); ok {
		m.keyShare = data
	}
	if data, ok := findExtension(exts, extServerName); ok {
		m.serverName = string(data)
	}
	_, m.tcplsHello = findExtension(exts, extTCPLSHello)
	if data, ok := findExtension(exts, extTCPLSJoin); ok {
		if m.join, err = parseJoinRequest(data); err != nil {
			return nil, err
		}
	}
	_, m.joinFast = findExtension(exts, extTCPLSJoinFast)
	if data, ok := findExtension(exts, extTCPLSPSK); ok {
		m.pskTicket = data
	}
	_, m.earlyData = findExtension(exts, extTCPLSEarlyData)
	return m, nil
}

// serverHello mirrors the TLS 1.3 ServerHello. pskAccepted echoes the
// client's PSK offer when the server resumed the session — it must be in
// the ServerHello (not EncryptedExtensions) because the key schedule
// diverges immediately after it.
type serverHello struct {
	random      [32]byte
	sessionID   []byte // echo of the client's
	suite       record.SuiteID
	keyShare    []byte
	pskAccepted bool
}

func (m *serverHello) marshal() []byte {
	var b []byte
	b = wire.AppendUint16(b, 0x0303)
	b = append(b, m.random[:]...)
	b = wire.AppendVector8(b, m.sessionID)
	b = wire.AppendUint16(b, uint16(m.suite))
	b = wire.AppendUint8(b, 0) // compression
	exts := []extension{
		{extSupportedVersions, []byte{0x03, 0x04}},
		{extKeyShare, m.keyShare},
	}
	if m.pskAccepted {
		exts = append(exts, extension{extTCPLSPSK, nil})
	}
	b = appendExtensions(b, exts)
	return wrap(typeServerHello, b)
}

func parseServerHello(body []byte) (*serverHello, error) {
	m := &serverHello{}
	r := wire.NewReader(body)
	if v := r.Uint16(); v != 0x0303 {
		return nil, ErrDecode
	}
	copy(m.random[:], r.Bytes(32))
	m.sessionID = r.Vector8()
	m.suite = record.SuiteID(r.Uint16())
	r.Uint8()
	if r.Err() != nil {
		return nil, ErrDecode
	}
	exts, err := parseExtensions(r)
	if err != nil || !r.Empty() {
		return nil, ErrDecode
	}
	if data, ok := findExtension(exts, extKeyShare); ok {
		m.keyShare = data
	}
	_, m.pskAccepted = findExtension(exts, extTCPLSPSK)
	return m, nil
}

// encryptedExtensions carries the server's TCPLS announcements, protected
// under the handshake keys so middleboxes never see them (paper §3.2).
type encryptedExtensions struct {
	tcplsHello    bool
	joinAck       bool
	earlyAccepted bool // echo of the 0-RTT offer: early data will be read
	sessID        *SessID
	cookies       []Cookie
	addrs         []netip.Addr
}

func (m *encryptedExtensions) marshal() []byte {
	var exts []extension
	if m.tcplsHello {
		exts = append(exts, extension{extTCPLSHello, nil})
	}
	if m.earlyAccepted {
		exts = append(exts, extension{extTCPLSEarlyData, nil})
	}
	if m.joinAck {
		exts = append(exts, extension{extTCPLSJoin, []byte{1}})
	}
	if m.sessID != nil {
		exts = append(exts, extension{extTCPLSSessID, m.sessID[:]})
	}
	if len(m.cookies) > 0 {
		data := make([]byte, 0, len(m.cookies)*CookieLen)
		for _, c := range m.cookies {
			data = append(data, c[:]...)
		}
		exts = append(exts, extension{extTCPLSCookie, data})
	}
	if len(m.addrs) > 0 {
		var data []byte
		for _, a := range m.addrs {
			raw := a.AsSlice()
			data = wire.AppendVector8(data, raw)
		}
		exts = append(exts, extension{extTCPLSAddr, data})
	}
	b := appendExtensions(nil, exts)
	return wrap(typeEncryptedExtensions, b)
}

func parseEncryptedExtensions(body []byte) (*encryptedExtensions, error) {
	m := &encryptedExtensions{}
	r := wire.NewReader(body)
	exts, err := parseExtensions(r)
	if err != nil || !r.Empty() {
		return nil, ErrDecode
	}
	_, m.tcplsHello = findExtension(exts, extTCPLSHello)
	_, m.earlyAccepted = findExtension(exts, extTCPLSEarlyData)
	if data, ok := findExtension(exts, extTCPLSJoin); ok {
		m.joinAck = len(data) == 1 && data[0] == 1
	}
	if data, ok := findExtension(exts, extTCPLSSessID); ok {
		if len(data) != SessIDLen {
			return nil, ErrDecode
		}
		var id SessID
		copy(id[:], data)
		m.sessID = &id
	}
	if data, ok := findExtension(exts, extTCPLSCookie); ok {
		if len(data)%CookieLen != 0 {
			return nil, ErrDecode
		}
		for i := 0; i < len(data); i += CookieLen {
			var c Cookie
			copy(c[:], data[i:])
			m.cookies = append(m.cookies, c)
		}
	}
	if data, ok := findExtension(exts, extTCPLSAddr); ok {
		ar := wire.NewReader(data)
		for ar.Len() > 0 {
			raw := ar.Vector8()
			if ar.Err() != nil {
				return nil, ErrDecode
			}
			addr, ok := netip.AddrFromSlice(raw)
			if !ok {
				return nil, ErrDecode
			}
			m.addrs = append(m.addrs, addr)
		}
	}
	return m, nil
}

// certificateMsg carries the server's Ed25519 public key and name. A real
// deployment would carry an X.509 chain; the trust decision exercised by
// the protocol (signature over the transcript, name check) is identical.
type certificateMsg struct {
	name   string
	pubKey []byte
}

func (m *certificateMsg) marshal() []byte {
	var b []byte
	b = wire.AppendVector8(b, []byte(m.name))
	b = wire.AppendVector16(b, m.pubKey)
	return wrap(typeCertificate, b)
}

func parseCertificate(body []byte) (*certificateMsg, error) {
	r := wire.NewReader(body)
	m := &certificateMsg{}
	m.name = string(r.Vector8())
	m.pubKey = r.Vector16()
	if r.Err() != nil || !r.Empty() {
		return nil, ErrDecode
	}
	return m, nil
}

// parseCertificateVerify returns the transcript signature.
func parseCertificateVerify(body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	sig := r.Vector16()
	if r.Err() != nil || !r.Empty() {
		return nil, ErrDecode
	}
	return sig, nil
}

// endOfEarlyData terminates the client's 0-RTT flight (RFC 8446 §4.5's
// message, sent here in the first flight itself so the server's early
// read loop has a deterministic end without waiting a round trip). It is
// protected under the early traffic key and excluded from the handshake
// transcript: a server that never recovered the PSK cannot read it, so
// it cannot be part of the hash both sides must agree on.
func endOfEarlyData() []byte { return wrap(typeEndOfEarlyData, nil) }

// joinAck answers a single-flight join request: one byte, accepted.
func joinAck(accepted bool) []byte {
	if accepted {
		return wrap(typeTCPLSJoinAck, []byte{1})
	}
	return wrap(typeTCPLSJoinAck, []byte{0})
}
