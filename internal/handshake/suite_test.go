package handshake

import (
	"bytes"
	"errors"
	"testing"

	"tcpls/internal/record"
)

// TestServerRefusesOfferWithoutAES128GCM: AES-128-GCM-SHA256 is the one
// suite; a ClientHello that offers only the other TLS 1.3 suites fails
// the server with ErrNoCommonSuite before it answers.
func TestServerRefusesOfferWithoutAES128GCM(t *testing.T) {
	cert := testCert(t)
	for _, offer := range [][]record.SuiteID{{0x1303}, {0x1302}, {0x1303, 0x1302}, {}} {
		priv, err := generateKeyShare()
		if err != nil {
			t.Fatal(err)
		}
		ch := &clientHello{
			suites:     offer,
			serverName: "server.example",
			keyShare:   priv.PublicKey().Bytes(),
			tcplsHello: true,
		}
		crw, srw := memPair()
		if err := crw.WriteMessage(ch.marshal()); err != nil {
			t.Fatal(err)
		}
		crw.CloseWrite()
		res, err := Server(srw, &Config{Certificate: cert, TCPLSServer: true})
		if !errors.Is(err, ErrNoCommonSuite) || res != nil {
			t.Fatalf("offer %v: result %v, err %v; want ErrNoCommonSuite", offer, res, err)
		}
		srw.CloseWrite()
		if reply, err := crw.ReadMessage(); err == nil {
			t.Fatalf("offer %v: server answered %x", offer, reply)
		}
	}
}

// TestClientRefusesServerChosenChaCha: a ServerHello that names a suite
// the client did not offer (0x1303, ChaCha20-Poly1305) fails the client
// with ErrNoCommonSuite.
func TestClientRefusesServerChosenChaCha(t *testing.T) {
	crw, srw := memPair()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := Client(crw, &Config{ServerName: "server.example", EnableTCPLS: true})
		crw.CloseWrite()
		done <- out{res, err}
	}()
	msg, err := srw.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	typ, body, err := splitMessage(msg)
	if err != nil || typ != typeClientHello {
		t.Fatalf("first client message: type %d, err %v", typ, err)
	}
	ch, err := parseClientHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.suites) != 1 || ch.suites[0] != record.TLSAES128GCMSHA256 {
		t.Fatalf("client offered %v, want only AES-128-GCM-SHA256", ch.suites)
	}
	priv, err := generateKeyShare()
	if err != nil {
		t.Fatal(err)
	}
	sh := &serverHello{suite: 0x1303, sessionID: ch.sessionID, keyShare: priv.PublicKey().Bytes()}
	copy(sh.random[:], bytes.Repeat([]byte{3}, 32))
	if err := srw.WriteMessage(sh.marshal()); err != nil {
		t.Fatal(err)
	}
	srw.CloseWrite()
	got := <-done
	if !errors.Is(got.err, ErrNoCommonSuite) || got.res != nil {
		t.Fatalf("result %v, err %v; want ErrNoCommonSuite", got.res, got.err)
	}
}
