package hkdf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RFC 5869 Appendix A, Test Case 1 (SHA-256).
func TestRFC5869Vector1(t *testing.T) {
	ikm := mustHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt := mustHex(t, "000102030405060708090a0b0c")
	info := mustHex(t, "f0f1f2f3f4f5f6f7f8f9")
	wantPRK := mustHex(t, "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	wantOKM := mustHex(t, "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")

	prk := Extract(sha256.New, ikm, salt)
	if !bytes.Equal(prk, wantPRK) {
		t.Fatalf("PRK mismatch:\n got %x\nwant %x", prk, wantPRK)
	}
	okm := Expand(sha256.New, prk, info, 42)
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM mismatch:\n got %x\nwant %x", okm, wantOKM)
	}
}

// RFC 5869 Appendix A, Test Case 2 (longer inputs/outputs).
func TestRFC5869Vector2(t *testing.T) {
	ikm := mustHex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f")
	salt := mustHex(t, "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf")
	info := mustHex(t, "b0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
	wantOKM := mustHex(t, "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87")

	prk := Extract(sha256.New, ikm, salt)
	okm := Expand(sha256.New, prk, info, 82)
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM mismatch:\n got %x\nwant %x", okm, wantOKM)
	}
}

// RFC 5869 Appendix A, Test Case 3 (zero-length salt and info).
func TestRFC5869Vector3(t *testing.T) {
	ikm := mustHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	wantOKM := mustHex(t, "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")

	prk := Extract(sha256.New, ikm, nil)
	okm := Expand(sha256.New, prk, nil, 42)
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM mismatch:\n got %x\nwant %x", okm, wantOKM)
	}
}

// TLS 1.3 key schedule vector from RFC 8448 §3 (simple 1-RTT handshake):
// the early secret with no PSK and the derived secret feeding the
// handshake secret.
func TestRFC8448EarlySecret(t *testing.T) {
	zeros := make([]byte, 32)
	earlySecret := Extract(sha256.New, zeros, nil)
	want := mustHex(t, "33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a")
	if !bytes.Equal(earlySecret, want) {
		t.Fatalf("early secret mismatch:\n got %x\nwant %x", earlySecret, want)
	}
	// Derive-Secret(early, "derived", "") with empty transcript hash.
	emptyHash := sha256.Sum256(nil)
	derived := DeriveSecret(sha256.New, earlySecret, "derived", emptyHash[:])
	wantDerived := mustHex(t, "6f2615a108c702c5678f54fc9dbab69716c076189c48250cebeac3576c3611ba")
	if !bytes.Equal(derived, wantDerived) {
		t.Fatalf("derived secret mismatch:\n got %x\nwant %x", derived, wantDerived)
	}
}

func TestExpandLengths(t *testing.T) {
	prk := Extract(sha256.New, []byte("key"), nil)
	for _, n := range []int{0, 1, 31, 32, 33, 64, 255, 8160} {
		out := Expand(sha256.New, prk, []byte("info"), n)
		if len(out) != n {
			t.Errorf("Expand(%d) returned %d bytes", n, len(out))
		}
	}
}

func TestExpandTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for > 255*HashLen output")
		}
	}()
	Expand(sha256.New, make([]byte, 32), nil, 255*32+1)
}

func TestExpandLabelDeterministicAndDistinct(t *testing.T) {
	secret := Extract(sha256.New, []byte("secret"), nil)
	a := ExpandLabel(sha256.New, secret, "key", nil, 16)
	b := ExpandLabel(sha256.New, secret, "key", nil, 16)
	c := ExpandLabel(sha256.New, secret, "iv", nil, 16)
	if !bytes.Equal(a, b) {
		t.Error("ExpandLabel not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Error("different labels must produce different output")
	}
}

func TestQuickExpandPrefixProperty(t *testing.T) {
	// HKDF output is a stream: a shorter expansion must be a prefix of a
	// longer one with the same inputs.
	f := func(seed []byte, short, long uint8) bool {
		s, l := int(short)%64, int(long)%64
		if s > l {
			s, l = l, s
		}
		prk := Extract(sha256.New, seed, nil)
		a := Expand(sha256.New, prk, []byte("x"), s)
		b := Expand(sha256.New, prk, []byte("x"), l)
		return bytes.Equal(a, b[:s])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExtractDiffersWithSalt(t *testing.T) {
	f := func(ikm []byte) bool {
		if len(ikm) == 0 {
			return true
		}
		a := Extract(sha256.New, ikm, nil)
		b := Extract(sha256.New, ikm, []byte{1})
		return !bytes.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExpanderReuseMatchesOneShot: one Expander keyed once and reused
// across labels, lengths and multi-block outputs derives exactly what a
// fresh HMAC per derivation does, in any order, RFC 8448's "derived"
// vector included.
func TestExpanderReuseMatchesOneShot(t *testing.T) {
	early := Extract(sha256.New, make([]byte, 32), nil)
	emptyHash := sha256.Sum256(nil)
	e := NewExpander(sha256.New, early)
	for round := 0; round < 2; round++ {
		for _, label := range []string{"c e traffic", "derived", "key", "iv"} {
			if got, want := e.DeriveSecret(label, emptyHash[:]), DeriveSecret(sha256.New, early, label, emptyHash[:]); !bytes.Equal(got, want) {
				t.Fatalf("round %d DeriveSecret(%q): %x, one-shot %x", round, label, got, want)
			}
		}
		for _, n := range []int{12, 16, 32, 33, 100} {
			if got, want := e.ExpandLabel("key", nil, n), ExpandLabel(sha256.New, early, "key", nil, n); !bytes.Equal(got, want) {
				t.Fatalf("round %d ExpandLabel(%d): %x, one-shot %x", round, n, got, want)
			}
		}
	}
	want := mustHex(t, "6f2615a108c702c5678f54fc9dbab69716c076189c48250cebeac3576c3611ba")
	if got := e.DeriveSecret("derived", emptyHash[:]); !bytes.Equal(got, want) {
		t.Fatalf("reused Expander, RFC 8448 derived secret:\n got %x\nwant %x", got, want)
	}
}
