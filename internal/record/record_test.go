package record

import (
	"bytes"
	"testing"
	"testing/quick"

	"tcpls/internal/wire"
)

func testSecret(tag byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = tag
	}
	return s
}

func newTestContext(t testing.TB, streamID uint32) *StreamContext {
	t.Helper()
	suite, err := SuiteByID(TLSAES128GCMSHA256)
	if err != nil {
		t.Fatal(err)
	}
	key, iv := DeriveTrafficKeys(suite, testSecret(0x42))
	c, err := NewStreamContext(suite, key, iv, streamID)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sendRecv builds a matched sender/receiver context pair for a stream.
func sendRecv(t testing.TB, streamID uint32) (*StreamContext, *StreamContext) {
	return newTestContext(t, streamID), newTestContext(t, streamID)
}

func TestSealOpenRoundTrip(t *testing.T) {
	send, recv := sendRecv(t, 0)
	for i := 0; i < 10; i++ {
		msg := []byte("hello tcpls record layer")
		rec, err := send.Seal(nil, ContentTypeApplicationData, msg, 0)
		if err != nil {
			t.Fatal(err)
		}
		ct, content, err := recv.Open(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if ct != ContentTypeApplicationData {
			t.Fatalf("content type = %d", ct)
		}
		if !bytes.Equal(content, msg) {
			t.Fatalf("content mismatch: %q", content)
		}
	}
}

func TestWireFormatLooksLikeTLS13(t *testing.T) {
	send, _ := sendRecv(t, 3)
	rec, err := send.Seal(nil, ContentTypeHandshake, []byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Outer header must always claim ApplicationData over TLS 1.2,
	// regardless of the inner content type: middleboxes must not be able
	// to distinguish TCPLS control records from TLS AppData.
	if rec[0] != ContentTypeApplicationData {
		t.Errorf("outer type = %d, want 23", rec[0])
	}
	if rec[1] != 0x03 || rec[2] != 0x03 {
		t.Errorf("legacy version = %x %x, want 0303", rec[1], rec[2])
	}
	if got := int(wire.Uint16(rec[3:5])); got != len(rec)-HeaderLen {
		t.Errorf("length field = %d, want %d", got, len(rec)-HeaderLen)
	}
}

func TestPaddingHidesLength(t *testing.T) {
	send, recv := sendRecv(t, 0)
	rec1, err := send.Seal(nil, ContentTypeApplicationData, []byte("ab"), 256)
	if err != nil {
		t.Fatal(err)
	}
	send2, recv2 := sendRecv(t, 0)
	rec2, err := send2.Seal(nil, ContentTypeApplicationData, bytes.Repeat([]byte("c"), 200), 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec1) != len(rec2) {
		t.Errorf("padded records differ in size: %d vs %d", len(rec1), len(rec2))
	}
	_, content, err := recv.Open(rec1)
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "ab" {
		t.Errorf("padding not stripped: %q", content)
	}
	if _, content, err = recv2.Open(rec2); err != nil || len(content) != 200 {
		t.Errorf("padded open: len=%d err=%v", len(content), err)
	}
}

func TestSequenceNumberMismatchFails(t *testing.T) {
	send, recv := sendRecv(t, 0)
	rec1, _ := send.Seal(nil, ContentTypeApplicationData, []byte("one"), 0)
	rec2, _ := send.Seal(nil, ContentTypeApplicationData, []byte("two"), 0)
	// Delivering record 2 first must fail: the receiver expects seq 0.
	if _, _, err := recv.Open(append([]byte(nil), rec2...)); err == nil {
		t.Fatal("out-of-sequence record accepted")
	}
	// In-order delivery still works because Open did not consume a
	// sequence number on failure.
	if _, _, err := recv.Open(rec1); err != nil {
		t.Fatalf("in-order record rejected after failed open: %v", err)
	}
}

func TestStreamIVDerivationFig2(t *testing.T) {
	// Stream 0's context must be bit-identical to the plain TLS 1.3
	// context; other streams must differ only in the left 32 IV bits.
	c0 := newTestContext(t, 0)
	c7 := newTestContext(t, 7)
	if !bytes.Equal(c0.iv[4:], c7.iv[4:]) {
		t.Error("right 64 bits of IV must be stream independent")
	}
	left0 := wire.Uint32(c0.iv[:4])
	left7 := wire.Uint32(c7.iv[:4])
	if left7 != left0+7 {
		t.Errorf("left IV bits: got %#x, want %#x + 7", left7, left0)
	}
}

func TestNonceUniquenessAcrossStreamsAndSeqs(t *testing.T) {
	// Every (stream, seq) pair must map to a unique nonce — the security
	// core of the Fig. 2 construction.
	seen := make(map[[12]byte]string)
	for _, sid := range []uint32{0, 1, 2, 100, 1 << 20} {
		c := newTestContext(t, sid)
		for seq := uint64(0); seq < 64; seq++ {
			n := [12]byte(c.nonce(seq))
			if prev, dup := seen[n]; dup {
				t.Fatalf("nonce collision: stream %d seq %d vs %s", sid, seq, prev)
			}
			seen[n] = ""
		}
	}
}

func TestCrossStreamDecryptFails(t *testing.T) {
	send, _ := sendRecv(t, 1)
	recvOther := newTestContext(t, 2)
	rec, _ := send.Seal(nil, ContentTypeApplicationData, []byte("stream 1 data"), 0)
	if _, _, err := recvOther.Open(rec); err == nil {
		t.Fatal("record for stream 1 opened under stream 2's context")
	}
}

func TestMaxRecordSize(t *testing.T) {
	send, recv := sendRecv(t, 0)
	big := make([]byte, MaxPlaintextLen)
	rec, err := send.Seal(nil, ContentTypeApplicationData, big, 0)
	if err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
	if len(rec) > MaxRecordLen {
		t.Fatalf("record exceeds MaxRecordLen: %d", len(rec))
	}
	if _, content, err := recv.Open(rec); err != nil || len(content) != MaxPlaintextLen {
		t.Fatalf("open max record: len=%d err=%v", len(content), err)
	}
	if _, err := send.Seal(nil, ContentTypeApplicationData, make([]byte, MaxPlaintextLen+1), 0); err != ErrRecordTooLarge {
		t.Fatalf("oversized record: err=%v, want ErrRecordTooLarge", err)
	}
}

func TestSealSeqReplay(t *testing.T) {
	send, recv := sendRecv(t, 0)
	orig, _ := send.Seal(nil, ContentTypeApplicationData, []byte("replay me"), 0)
	// Re-encrypting the same content at the same seq must reproduce the
	// exact ciphertext (deterministic AEAD given nonce), and must not
	// disturb the live sequence counter.
	replay, err := send.SealSeq(nil, 0, ContentTypeApplicationData, []byte("replay me"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, replay) {
		t.Fatal("SealSeq did not reproduce original ciphertext")
	}
	if send.Seq() != 1 {
		t.Fatalf("SealSeq advanced live seq to %d", send.Seq())
	}
	if _, _, err := recv.Open(replay); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownSuite: AES-128-GCM is the only suite; the other TLS 1.3
// suites (0x1302 AES-256-GCM, 0x1303 ChaCha20-Poly1305) and unassigned
// IDs are refused.
func TestUnknownSuite(t *testing.T) {
	for _, id := range []SuiteID{0x1302, 0x1303, 0x1399} {
		if _, err := SuiteByID(id); err == nil {
			t.Fatalf("suite 0x%04x accepted", uint16(id))
		}
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	suite, _ := SuiteByID(TLSAES128GCMSHA256)
	key, iv := DeriveTrafficKeys(suite, testSecret(1))
	f := func(payload []byte, streamID uint32, padTo uint16) bool {
		pad := int(padTo) % MaxPlaintextLen
		if max := MaxPlaintextLen - pad; len(payload) > max {
			payload = payload[:max]
		}
		send, err := NewStreamContext(suite, key, iv, streamID)
		if err != nil {
			return false
		}
		recv, _ := NewStreamContext(suite, key, iv, streamID)
		rec, err := send.Seal(nil, ContentTypeApplicationData, payload, pad)
		if err != nil {
			return false
		}
		_, content, err := recv.Open(rec)
		return err == nil && bytes.Equal(content, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTamperedRecordRejected(t *testing.T) {
	send, _ := sendRecv(t, 0)
	rec, _ := send.Seal(nil, ContentTypeApplicationData, []byte("payload payload payload"), 0)
	f := func(pos uint16, bit uint8) bool {
		recv := newTestContext(t, 0)
		tampered := append([]byte(nil), rec...)
		tampered[int(pos)%len(tampered)] ^= 1 << (bit % 8)
		_, _, err := recv.Open(tampered)
		// Header tampering may flip the length field; any failure mode
		// is acceptable as long as the record is not accepted as valid
		// with different bytes.
		if err == nil {
			return bytes.Equal(tampered, rec)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrailingContentPreservedForZeroCopy(t *testing.T) {
	// The paper's zero-copy design puts control data at the end of the
	// record so the receiver can truncate it after an in-place decrypt.
	// Verify Open returns content aliasing the record's storage.
	send, recv := sendRecv(t, 0)
	msg := bytes.Repeat([]byte("z"), 1000)
	rec, _ := send.Seal(nil, ContentTypeApplicationData, msg, 0)
	_, content, err := recv.Open(rec)
	if err != nil {
		t.Fatal(err)
	}
	if &content[0] != &rec[HeaderLen] {
		t.Error("Open did not decrypt in place (zero-copy violated)")
	}
}
