package handshake

import (
	"bytes"
	"errors"
	"testing"

	"tcpls/internal/record"
	"tcpls/internal/resume"
)

// Negative paths of the handshake machine, in the message order of
// RFC 8446 §2: each hostile sequence ends in a typed error, never in a
// handshake that completes on what the peer did not say.

// rewriteServerFlight runs a client against a server whose first flight
// passes through f, which may reorder, drop or duplicate its sealed
// messages.
func rewriteServerFlight(t *testing.T, ccfg, scfg *Config, f func(msgs [][]byte) [][]byte) (cerr, serr error) {
	t.Helper()
	cm, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewServer(scfg)
	_, _, cerr, serr = pump(cm, sm, func(flight []byte) []byte {
		sh, msgs := splitFlight(t, sm, flight)
		return sealFlight(t, sm, sh, f(msgs))
	})
	return cerr, serr
}

func TestMachineRejectsFlightsOutOfOrder(t *testing.T) {
	cert := testCert(t)
	scfg := &Config{Certificate: cert, TCPLSServer: true}
	ccfg := &Config{ServerName: "server.example", EnableTCPLS: true}
	cases := map[string]func(msgs [][]byte) [][]byte{
		// EE, Cert, CV, Fin as the server sent them, rearranged.
		"certificate before extensions": func(m [][]byte) [][]byte { return [][]byte{m[1], m[0], m[2], m[3]} },
		"finished before verify":        func(m [][]byte) [][]byte { return [][]byte{m[0], m[1], m[3], m[2]} },
		"extensions twice":              func(m [][]byte) [][]byte { return [][]byte{m[0], m[0], m[1], m[2], m[3]} },
		"certificate twice":             func(m [][]byte) [][]byte { return [][]byte{m[0], m[1], m[1], m[2], m[3]} },
		"no certificate":                func(m [][]byte) [][]byte { return [][]byte{m[0], m[3]} },
	}
	for name, f := range cases {
		cerr, _ := rewriteServerFlight(t, ccfg, scfg, f)
		if !errors.Is(cerr, ErrUnexpectedMessage) {
			t.Errorf("%s: client err=%v, want ErrUnexpectedMessage", name, cerr)
		}
	}
}

// TestMachineRejectsDuplicatedFlight: a ClientHello the server sees twice
// arrives in plaintext after the key change, where only sealed records
// are taken; a ServerHello fed twice is the same on the client.
func TestMachineRejectsDuplicatedFlight(t *testing.T) {
	cert := testCert(t)
	cm, err := NewClient(&Config{EnableTCPLS: true})
	if err != nil {
		t.Fatal(err)
	}
	hello := cm.Flight()
	sm := NewServer(&Config{Certificate: cert, TCPLSServer: true})
	if err := sm.Feed(append(append([]byte(nil), hello...), hello...)); !errors.Is(err, record.ErrDecrypt) {
		t.Fatalf("server fed the hello twice: err=%v, want record.ErrDecrypt", err)
	}

	sm = NewServer(&Config{Certificate: cert, TCPLSServer: true})
	if err := sm.Feed(hello); err != nil {
		t.Fatal(err)
	}
	flight := drain(sm)
	shLen := record.HeaderLen + (int(flight[3])<<8 | int(flight[4]))
	twice := append(append([]byte(nil), flight[:shLen]...), flight...)
	if err := cm.Feed(twice); !errors.Is(err, record.ErrDecrypt) {
		t.Fatalf("client fed the server hello twice: err=%v, want record.ErrDecrypt", err)
	}
}

// TestMachineRejectsFinishedOverWrongTranscript: the client reads an
// EncryptedExtensions other than the one the server's Finished covers.
// On a resumption nothing else binds the transcript, so the Finished
// check is what catches it; on a full handshake the signature does.
func TestMachineRejectsFinishedOverWrongTranscript(t *testing.T) {
	cert := testCert(t)
	psk := bytes.Repeat([]byte{0x47}, 32)
	ticket := []byte("ticket")
	scfg := &Config{Certificate: cert, TCPLSServer: true,
		DecryptTicket: func(tk []byte) ([]byte, bool) { return psk, bytes.Equal(tk, ticket) }}
	otherEE := (&encryptedExtensions{tcplsHello: true, sessID: &SessID{1}}).marshal()
	swapEE := func(m [][]byte) [][]byte { return append([][]byte{otherEE}, m[1:]...) }

	cerr, serr := rewriteServerFlight(t, &Config{EnableTCPLS: true, PSK: psk, PSKTicket: ticket}, scfg, swapEE)
	if cerr != ErrBadFinished {
		t.Fatalf("resumed: client err=%v, want ErrBadFinished", cerr)
	}
	if serr == nil {
		t.Fatal("resumed: server completed a handshake the client refused")
	}
	if cerr, _ := rewriteServerFlight(t, &Config{EnableTCPLS: true}, scfg, swapEE); cerr != ErrBadSignature {
		t.Fatalf("full: client err=%v, want ErrBadSignature", cerr)
	}
}

// TestMachineRejectsEarlyDataWithoutTicket: 0-RTT needs a ticket to key
// it, and a join has its session's keys; a hello that offers early data
// otherwise is refused before the server answers.
func TestMachineRejectsEarlyDataWithoutTicket(t *testing.T) {
	cert := testCert(t)
	priv, err := generateKeyShare()
	if err != nil {
		t.Fatal(err)
	}
	hellos := map[string]*clientHello{
		"no ticket": {suites: offeredSuites, keyShare: priv.PublicKey().Bytes(), tcplsHello: true, earlyData: true},
		"join": {suites: offeredSuites, keyShare: priv.PublicKey().Bytes(), tcplsHello: true, earlyData: true,
			pskTicket: []byte("t"), join: &joinRequest{ConnID: 1}},
	}
	for name, ch := range hellos {
		sm := NewServer(&Config{Certificate: cert, TCPLSServer: true, Sessions: &sessionTable{cookies: map[Cookie]bool{{}: true}}})
		if err := sm.Feed(plainRecord(ch.marshal())); !errors.Is(err, ErrUnexpectedMessage) {
			t.Errorf("%s: server err=%v, want ErrUnexpectedMessage", name, err)
		}
		if out := sm.Flight(); len(out) > 0 {
			t.Errorf("%s: server answered %d bytes", name, len(out))
		}
	}
}

// TestMachineSkipsEarlyDataItCannotRead: a resumption the server cannot
// honour falls back to a full handshake and drops the 0-RTT flight it
// cannot decrypt, within a bounded budget: a flight past it fails the
// server with a typed error.
func TestMachineSkipsEarlyDataItCannotRead(t *testing.T) {
	cert := testCert(t)
	scfg := &Config{Certificate: cert, TCPLSServer: true, MaxEarlyData: 1024,
		DecryptTicket: func([]byte) ([]byte, bool) { return nil, false }}
	ccfg := &Config{EnableTCPLS: true, PSK: bytes.Repeat([]byte{1}, 32), PSKTicket: []byte("lost"),
		EarlyData: []byte("never read")}
	cres, sres, cerr, serr := run(t, ccfg, scfg)
	if cerr != nil || serr != nil {
		t.Fatalf("client=%v server=%v", cerr, serr)
	}
	if cres.Resumed || sres.Resumed || cres.EarlyDataAccepted || sres.EarlyData != nil {
		t.Fatalf("unreadable 0-RTT surfaced: resumed %v/%v, accepted %v, data %q",
			cres.Resumed, sres.Resumed, cres.EarlyDataAccepted, sres.EarlyData)
	}

	ccfg.EarlyData = make([]byte, defaultMaxEarlyData+8192)
	if _, _, _, serr := run(t, ccfg, scfg); !errors.Is(serr, record.ErrDecrypt) {
		t.Fatalf("flight past the skip budget: server err=%v, want record.ErrDecrypt", serr)
	}
}

// TestMachineTicketFromForeignKeyGeneration: tickets sealed by another
// key store, or by a generation past the accept window, do not open; the
// handshake falls back to a full one and the 0-RTT flight is not read.
func TestMachineTicketFromForeignKeyGeneration(t *testing.T) {
	cert := testCert(t)
	psk := bytes.Repeat([]byte{0x48}, 32)
	ours, err := resume.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := resume.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	foreignTicket, err := foreign.Seal(psk)
	if err != nil {
		t.Fatal(err)
	}
	oldTicket, err := ours.Seal(psk)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < resume.DefaultAcceptWindow; i++ {
		if err := ours.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	freshTicket, err := ours.Seal(psk)
	if err != nil {
		t.Fatal(err)
	}
	scfg := &Config{Certificate: cert, TCPLSServer: true,
		DecryptTicket: func(tk []byte) ([]byte, bool) {
			p, _, _, err := ours.OpenTicket(tk)
			return p, err == nil
		}}
	for name, tc := range map[string]struct {
		ticket  []byte
		resumed bool
	}{
		"foreign store":   {foreignTicket, false},
		"aged generation": {oldTicket, false},
		"current":         {freshTicket, true},
	} {
		ccfg := &Config{EnableTCPLS: true, PSK: psk, PSKTicket: tc.ticket, EarlyData: []byte("GET /")}
		cres, sres, cerr, serr := run(t, ccfg, scfg)
		if cerr != nil || serr != nil {
			t.Fatalf("%s: client=%v server=%v", name, cerr, serr)
		}
		if cres.Resumed != tc.resumed || sres.Resumed != tc.resumed || cres.EarlyDataAccepted != tc.resumed {
			t.Errorf("%s: resumed %v/%v, 0-RTT accepted %v; want %v", name, cres.Resumed, sres.Resumed, cres.EarlyDataAccepted, tc.resumed)
		}
		if !tc.resumed && sres.EarlyData != nil {
			t.Errorf("%s: early data reached the server", name)
		}
	}
}

// FuzzHandshakeMachine feeds arbitrary bytes, cut at an arbitrary point,
// into a server machine: it must end in a typed error or in progress —
// never a panic — and hold no more than one partial record and one
// partial message, whatever the input.
func FuzzHandshakeMachine(f *testing.F) {
	cert, err := NewCertificate("server.example")
	if err != nil {
		f.Fatal(err)
	}
	psk := bytes.Repeat([]byte{0x49}, 32)
	ticket := []byte("fuzz-ticket")
	sessions := &sessionTable{cookies: map[Cookie]bool{{7}: true}}
	first := func(cfg *Config, fast bool) []byte {
		m, err := newClient(cfg, fast)
		if err != nil {
			f.Fatal(err)
		}
		return m.Flight()
	}
	f.Add(first(&Config{EnableTCPLS: true}, false), 0)
	f.Add(first(&Config{EnableTCPLS: true, PSK: psk, PSKTicket: ticket, EarlyData: []byte("early")}, false), 9)
	f.Add(first(&Config{Join: &JoinTicket{Cookie: Cookie{7}, ConnID: 1}}, false), 100)
	f.Add(first(&Config{Join: &JoinTicket{Cookie: Cookie{7}, ConnID: 1}}, true), 3)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		sessions.cookies[Cookie{7}] = true
		sm := NewServer(&Config{Certificate: cert, TCPLSServer: true, Sessions: sessions,
			DecryptTicket: func(tk []byte) ([]byte, bool) { return psk, bytes.Equal(tk, ticket) }})
		cut = min(max(cut, 0), len(data))
		err := sm.Feed(data[:cut])
		drain(sm)
		if err == nil {
			err = sm.Feed(data[cut:])
		}
		if drain(sm); err == nil {
			err = sm.Err()
		}
		typed := []error{ErrDecode, ErrUnexpectedMessage, ErrNoCommonSuite, ErrJoinRejected,
			ErrEarlyDataOverflow, ErrPlaintextTooLarge, record.ErrDecrypt, record.ErrRecordTooLarge}
		if err != nil {
			ok := false
			for _, e := range typed {
				ok = ok || errors.Is(err, e)
			}
			if !ok {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if sm.Done() {
			return
		}
		if n := sm.in.Buffered(); n >= record.MaxRecordLen {
			t.Fatalf("%d bytes buffered short of a record", n)
		}
		if n := len(sm.pending); n > maxPending {
			t.Fatalf("%d bytes buffered short of a message", n)
		}
		if n := len(sm.res.EarlyData); n > defaultMaxEarlyData {
			t.Fatalf("%d bytes of early data held", n)
		}
	})
}
