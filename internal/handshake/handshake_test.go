package handshake

import (
	"bytes"
	"crypto/ed25519"
	"io"
	"net"
	"net/netip"
	"sync"
	"testing"

	"tcpls/internal/record"
)

// memRW is an in-memory MessageRW connecting two handshake peers over
// channels, bypassing the record layer. CloseWrite signals the peer that
// this side is done (successfully or not) so a blocked ReadMessage fails
// instead of deadlocking the test.
type memRW struct {
	in   <-chan []byte
	out  chan<- []byte
	once sync.Once
}

func (m *memRW) WriteMessage(msg []byte) error {
	m.out <- append([]byte(nil), msg...)
	return nil
}

func (m *memRW) ReadMessage() ([]byte, error) {
	msg, ok := <-m.in
	if !ok {
		return nil, io.EOF
	}
	return msg, nil
}

func (m *memRW) SetHandshakeKeys(*record.Suite, []byte, []byte) error {
	return nil
}

func (m *memRW) CloseWrite() { m.once.Do(func() { close(m.out) }) }

type closableRW interface {
	MessageRW
	CloseWrite()
}

func memPair() (client, server closableRW) {
	a := make(chan []byte, 16)
	b := make(chan []byte, 16)
	return &memRW{in: b, out: a}, &memRW{in: a, out: b}
}

func testCert(t testing.TB) *Certificate {
	t.Helper()
	cert, err := NewCertificate("server.example")
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// run executes a client/server handshake pair concurrently.
func run(t testing.TB, crw, srw closableRW, ccfg, scfg *Config) (*Result, *Result, error, error) {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	sc := make(chan out, 1)
	go func() {
		res, err := Server(srw, scfg)
		srw.CloseWrite()
		sc <- out{res, err}
	}()
	cres, cerr := Client(crw, ccfg)
	crw.CloseWrite()
	s := <-sc
	return cres, s.res, cerr, s.err
}

type sessionTable struct {
	id      SessID
	cookies map[Cookie]bool // true = still valid
}

func (st *sessionTable) ValidateJoin(id SessID, cookie Cookie) bool {
	if id != st.id {
		return false
	}
	if !st.cookies[cookie] {
		return false
	}
	st.cookies[cookie] = false // single use
	return true
}

func TestFullHandshakeTCPLS(t *testing.T) {
	cert := testCert(t)
	crw, srw := memPair()
	cres, sres, cerr, serr := run(t, crw, srw,
		&Config{ServerName: "server.example", EnableTCPLS: true, RootKeys: []ed25519.PublicKey{cert.Public}},
		&Config{Certificate: cert, TCPLSServer: true,
			AdvertiseAddrs: []netip.Addr{netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("2001:db8::1")}},
	)
	if cerr != nil || serr != nil {
		t.Fatalf("client err=%v server err=%v", cerr, serr)
	}
	if !cres.TCPLSEnabled || !sres.TCPLSEnabled {
		t.Fatal("TCPLS not negotiated")
	}
	if !bytes.Equal(cres.Secrets.ClientApp, sres.Secrets.ClientApp) {
		t.Error("client app secrets differ")
	}
	if !bytes.Equal(cres.Secrets.ServerApp, sres.Secrets.ServerApp) {
		t.Error("server app secrets differ")
	}
	if bytes.Equal(cres.Secrets.ClientApp, cres.Secrets.ServerApp) {
		t.Error("directional secrets must differ")
	}
	if !bytes.Equal(cres.Secrets.Resumption, sres.Secrets.Resumption) {
		t.Error("resumption secrets differ")
	}
	if cres.SessID != sres.SessID {
		t.Error("session IDs differ")
	}
	if len(cres.Cookies) != 2 || len(sres.Cookies) != 2 {
		t.Errorf("cookies: client %d server %d, want 2", len(cres.Cookies), len(sres.Cookies))
	}
	if len(cres.PeerAddrs) != 2 {
		t.Errorf("client saw %d advertised addrs, want 2", len(cres.PeerAddrs))
	}
	if cres.PeerName != "server.example" {
		t.Errorf("peer name %q", cres.PeerName)
	}
}

func TestFallbackToPlainTLS(t *testing.T) {
	cert := testCert(t)
	crw, srw := memPair()
	// Server does not enable TCPLS: the client must complete the
	// handshake anyway and observe TCPLSEnabled=false (paper §5.2:
	// implicit fallback when the server omits the TCPLS Hello echo).
	cres, sres, cerr, serr := run(t, crw, srw,
		&Config{EnableTCPLS: true},
		&Config{Certificate: cert},
	)
	if cerr != nil || serr != nil {
		t.Fatalf("client err=%v server err=%v", cerr, serr)
	}
	if cres.TCPLSEnabled || sres.TCPLSEnabled {
		t.Fatal("TCPLS negotiated unilaterally")
	}
	if !bytes.Equal(cres.Secrets.ClientApp, sres.Secrets.ClientApp) {
		t.Error("secrets differ after fallback")
	}
}

func TestPlainClientAgainstTCPLSServer(t *testing.T) {
	cert := testCert(t)
	crw, srw := memPair()
	cres, sres, cerr, serr := run(t, crw, srw,
		&Config{},
		&Config{Certificate: cert, TCPLSServer: true},
	)
	if cerr != nil || serr != nil {
		t.Fatalf("client err=%v server err=%v", cerr, serr)
	}
	if cres.TCPLSEnabled || sres.TCPLSEnabled {
		t.Fatal("server enabled TCPLS for a non-TCPLS client")
	}
}

func TestJoinHandshake(t *testing.T) {
	cert := testCert(t)

	// First, a regular TCPLS handshake to mint session state.
	crw, srw := memPair()
	cres, sres, cerr, serr := run(t, crw, srw,
		&Config{EnableTCPLS: true},
		&Config{Certificate: cert, TCPLSServer: true},
	)
	if cerr != nil || serr != nil {
		t.Fatal(cerr, serr)
	}

	table := &sessionTable{id: sres.SessID, cookies: map[Cookie]bool{}}
	for _, c := range sres.Cookies {
		table.cookies[c] = true
	}

	// Join with a valid cookie.
	crw2, srw2 := memPair()
	jres, sjres, cerr, serr := run(t, crw2, srw2,
		&Config{Join: &JoinTicket{SessID: cres.SessID, Cookie: cres.Cookies[0]}},
		&Config{Certificate: cert, TCPLSServer: true, Sessions: table},
	)
	if cerr != nil || serr != nil {
		t.Fatalf("join failed: client=%v server=%v", cerr, serr)
	}
	if !jres.JoinAccepted || !sjres.JoinAccepted {
		t.Fatal("join not accepted")
	}
	if jres.SessID != cres.SessID {
		t.Error("joined session ID mismatch")
	}
	if !bytes.Equal(jres.Secrets.ClientApp, sjres.Secrets.ClientApp) {
		t.Error("join secrets differ")
	}

	// Reusing the same cookie must fail (single use).
	crw3, srw3 := memPair()
	_, _, cerr, serr = run(t, crw3, srw3,
		&Config{Join: &JoinTicket{SessID: cres.SessID, Cookie: cres.Cookies[0]}},
		&Config{Certificate: cert, TCPLSServer: true, Sessions: table},
	)
	if serr != ErrJoinRejected {
		t.Fatalf("cookie reuse: server err=%v, want ErrJoinRejected", serr)
	}
	if cerr == nil {
		t.Fatal("client completed a rejected join")
	}

	// A wrong session ID must fail.
	crw4, srw4 := memPair()
	_, _, _, serr = run(t, crw4, srw4,
		&Config{Join: &JoinTicket{SessID: SessID{9, 9}, Cookie: cres.Cookies[1]}},
		&Config{Certificate: cert, TCPLSServer: true, Sessions: table},
	)
	if serr != ErrJoinRejected {
		t.Fatalf("bad sessid: server err=%v", serr)
	}
}

func TestUntrustedServerKeyRejected(t *testing.T) {
	cert := testCert(t)
	other := testCert(t)
	crw, srw := memPair()
	_, _, cerr, _ := run(t, crw, srw,
		&Config{RootKeys: []ed25519.PublicKey{other.Public}, EnableTCPLS: true},
		&Config{Certificate: cert, TCPLSServer: true},
	)
	if cerr != ErrUntrustedKey {
		t.Fatalf("client err=%v, want ErrUntrustedKey", cerr)
	}
}

func TestServerNameMismatchRejected(t *testing.T) {
	cert := testCert(t)
	crw, srw := memPair()
	_, _, cerr, _ := run(t, crw, srw,
		&Config{ServerName: "other.example"},
		&Config{Certificate: cert},
	)
	if cerr == nil {
		t.Fatal("client accepted mismatched server name")
	}
}

func TestTamperedFinishedRejected(t *testing.T) {
	cert := testCert(t)
	a := make(chan []byte, 16)
	b := make(chan []byte, 16)
	crw := &memRW{in: b, out: a}
	// A tampering server-side wrapper flips a byte in its Finished.
	srw := &tamperRW{memRW: memRW{in: a, out: b}}
	_, _, cerr, _ := run(t, crw, srw, &Config{}, &Config{Certificate: cert})
	if cerr != ErrBadFinished {
		t.Fatalf("client err=%v, want ErrBadFinished", cerr)
	}
}

type tamperRW struct{ memRW }

func (tr *tamperRW) WriteMessage(msg []byte) error {
	if msg[0] == typeFinished {
		msg = append([]byte(nil), msg...)
		msg[len(msg)-1] ^= 1
	}
	return tr.memRW.WriteMessage(msg)
}

func TestHandshakeOverPipe(t *testing.T) {
	// Full handshake over a real byte stream through the record-layer
	// transport, exercising plaintext + encrypted phases and framing.
	cert := testCert(t)
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	defer sconn.Close()

	type out struct {
		res *Result
		err error
	}
	sc := make(chan out, 1)
	go func() {
		res, err := Server(NewTransport(sconn), &Config{
			Certificate: cert, TCPLSServer: true,
		})
		sc <- out{res, err}
	}()
	cres, cerr := Client(NewTransport(cconn), &Config{EnableTCPLS: true})
	s := <-sc
	if cerr != nil || s.err != nil {
		t.Fatalf("client=%v server=%v", cerr, s.err)
	}
	if !cres.TCPLSEnabled {
		t.Fatal("TCPLS not negotiated over pipe")
	}
	if !bytes.Equal(cres.Secrets.ClientApp, s.res.Secrets.ClientApp) {
		t.Fatal("secrets differ over pipe")
	}
}

func TestClientHelloOnWireIsPlainTLS(t *testing.T) {
	// The ClientHello record must look like standard TLS so middleboxes
	// accept it: content type 22, legacy version 0x0303.
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	defer sconn.Close()
	go func() {
		Client(NewTransport(cconn), &Config{EnableTCPLS: true})
	}()
	hdr := make([]byte, 5)
	if _, err := readFull(sconn, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != record.ContentTypeHandshake {
		t.Errorf("record type %d, want 22", hdr[0])
	}
	if hdr[1] != 3 || hdr[2] != 3 {
		t.Errorf("legacy version %x%x", hdr[1], hdr[2])
	}
}

func readFull(c net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := c.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func TestMessageRoundTrips(t *testing.T) {
	ch := &clientHello{
		suites:     []record.SuiteID{record.TLSAES128GCMSHA256, 0x1303},
		serverName: "example.org",
		keyShare:   bytes.Repeat([]byte{7}, 32),
		tcplsHello: true,
		join:       &joinRequest{SessID: SessID{1, 2, 3}, Cookie: Cookie{4, 5, 6}},
	}
	copy(ch.random[:], bytes.Repeat([]byte{9}, 32))
	typ, body, err := splitMessage(ch.marshal())
	if err != nil || typ != typeClientHello {
		t.Fatal(err)
	}
	got, err := parseClientHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.serverName != ch.serverName || !got.tcplsHello ||
		got.join == nil || got.join.SessID != ch.join.SessID ||
		got.join.Cookie != ch.join.Cookie ||
		!bytes.Equal(got.keyShare, ch.keyShare) ||
		len(got.suites) != 2 {
		t.Fatalf("client hello round trip mismatch: %+v", got)
	}

	id := SessID{0xaa}
	ee := &encryptedExtensions{
		tcplsHello: true,
		sessID:     &id,
		cookies:    []Cookie{{1}, {2}, {3}},
		addrs:      []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("fe80::1")},
	}
	typ, body, err = splitMessage(ee.marshal())
	if err != nil || typ != typeEncryptedExtensions {
		t.Fatal(err)
	}
	gotEE, err := parseEncryptedExtensions(body)
	if err != nil {
		t.Fatal(err)
	}
	if !gotEE.tcplsHello || gotEE.sessID == nil || *gotEE.sessID != id ||
		len(gotEE.cookies) != 3 || len(gotEE.addrs) != 2 {
		t.Fatalf("encrypted extensions round trip mismatch: %+v", gotEE)
	}

	tk := &newSessionTicket{lifetime: 3600, ticket: []byte("opaque ticket")}
	typ, body, err = splitMessage(tk.marshal())
	if err != nil || typ != typeNewSessionTicket {
		t.Fatal(err)
	}
	gotTK, err := parseNewSessionTicket(body)
	if err != nil || gotTK.lifetime != 3600 || string(gotTK.ticket) != "opaque ticket" {
		t.Fatalf("ticket round trip: %+v err=%v", gotTK, err)
	}
}

func TestMalformedMessagesRejected(t *testing.T) {
	if _, _, err := splitMessage([]byte{1, 0, 0}); err == nil {
		t.Error("short header accepted")
	}
	if _, _, err := splitMessage([]byte{1, 0, 0, 5, 1, 2}); err == nil {
		t.Error("truncated body accepted")
	}
	if _, err := parseClientHello([]byte{3, 3}); err == nil {
		t.Error("truncated client hello accepted")
	}
	if _, err := parseJoinRequest(make([]byte, 5)); err == nil {
		t.Error("short join request accepted")
	}
	if _, err := parseEncryptedExtensions([]byte{0, 4, 0xfa, 3, 0, 9}); err == nil {
		t.Error("bad sessid length accepted")
	}
}

func TestPSKResumptionSkipsCertificate(t *testing.T) {
	cert := testCert(t)
	psk := bytes.Repeat([]byte{0x42}, 32)
	ticket := []byte("opaque-server-ticket")
	decrypt := func(tk []byte) ([]byte, bool) {
		if bytes.Equal(tk, ticket) {
			return psk, true
		}
		return nil, false
	}

	// countingRW counts messages the client receives to prove the
	// certificate flight is absent.
	crw, srw := memPair()
	var serverMsgs int
	crwCounted := &countingRW{closableRW: crw, n: &serverMsgs}

	cres, sres, cerr, serr := run(t, crwCounted, srw,
		&Config{PSK: psk, PSKTicket: ticket},
		&Config{Certificate: cert, TCPLSServer: true, DecryptTicket: decrypt},
	)
	if cerr != nil || serr != nil {
		t.Fatalf("client=%v server=%v", cerr, serr)
	}
	if !cres.Resumed || !sres.Resumed {
		t.Fatal("handshake not resumed")
	}
	if !bytes.Equal(cres.Secrets.ClientApp, sres.Secrets.ClientApp) {
		t.Fatal("resumed secrets differ")
	}
	// Resumed server flight: ServerHello, EncryptedExtensions, Finished
	// = 3 messages (full handshake has 5 with Certificate+Verify).
	if serverMsgs != 3 {
		t.Fatalf("client received %d server messages, want 3 (no certificate flight)", serverMsgs)
	}

	// PSK and full-handshake secrets must differ (PSK is mixed in).
	crw2, srw2 := memPair()
	fullC, _, cerr, serr := run(t, crw2, srw2,
		&Config{}, &Config{Certificate: cert, TCPLSServer: true})
	if cerr != nil || serr != nil {
		t.Fatal(cerr, serr)
	}
	if bytes.Equal(fullC.Secrets.ClientApp, cres.Secrets.ClientApp) {
		t.Fatal("PSK did not affect the key schedule")
	}
}

func TestPSKRejectedFallsBackToFullHandshake(t *testing.T) {
	cert := testCert(t)
	crw, srw := memPair()
	cres, sres, cerr, serr := run(t, crw, srw,
		&Config{PSK: bytes.Repeat([]byte{1}, 32), PSKTicket: []byte("garbage")},
		&Config{Certificate: cert, TCPLSServer: true,
			DecryptTicket: func([]byte) ([]byte, bool) { return nil, false }},
	)
	if cerr != nil || serr != nil {
		t.Fatalf("client=%v server=%v", cerr, serr)
	}
	if cres.Resumed || sres.Resumed {
		t.Fatal("resumed despite rejected ticket")
	}
	if !bytes.Equal(cres.Secrets.ClientApp, sres.Secrets.ClientApp) {
		t.Fatal("fallback secrets differ")
	}
}

// countingRW counts delivered messages.
type countingRW struct {
	closableRW
	n *int
}

func (c *countingRW) ReadMessage() ([]byte, error) {
	m, err := c.closableRW.ReadMessage()
	if err == nil {
		*c.n++
	}
	return m, err
}
