package resume

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSealOpenRoundTrip(t *testing.T) {
	ks, err := NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	psk := bytes.Repeat([]byte{0xab}, 32)
	ticket, err := ks.Seal(psk)
	if err != nil {
		t.Fatal(err)
	}
	got, issued, reissue, err := ks.OpenTicket(ticket)
	if err != nil {
		t.Fatal(err)
	}
	if reissue {
		t.Fatal("current-generation ticket flagged for reissue")
	}
	if !bytes.Equal(got, psk) {
		t.Fatalf("psk mismatch: %x != %x", got, psk)
	}
	if d := time.Since(issued); d < 0 || d > time.Minute {
		t.Fatalf("sealed issuance stamp %v not near now", issued)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys")
	ks1, err := Open(path, []byte("hunter2"))
	if err != nil {
		t.Fatal(err)
	}
	psk := bytes.Repeat([]byte{7}, 32)
	ticket, err := ks1.Seal(psk)
	if err != nil {
		t.Fatal(err)
	}

	// Simulated restart: a fresh store from the same file opens the
	// ticket the old process sealed.
	ks2, err := Open(path, []byte("hunter2"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ks2.OpenTicket(ticket)
	if err != nil {
		t.Fatalf("ticket did not survive restart: %v", err)
	}
	if !bytes.Equal(got, psk) {
		t.Fatal("psk mismatch after restart")
	}

	// Wrong passphrase must fail with the typed error, not garbage keys.
	if _, err := Open(path, []byte("wrong")); !errors.Is(err, ErrBadKeyFile) {
		t.Fatalf("wrong passphrase: got %v, want ErrBadKeyFile", err)
	}
}

func TestRotationWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys")
	ks, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	psk := bytes.Repeat([]byte{1}, 32)
	gen1, err := ks.Seal(psk)
	if err != nil {
		t.Fatal(err)
	}

	// One rotation: the old ticket still opens, but flags reissue.
	if err := ks.Rotate(); err != nil {
		t.Fatal(err)
	}
	if g := ks.Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	got, _, reissue, err := ks.OpenTicket(gen1)
	if err != nil {
		t.Fatalf("N-1 ticket rejected: %v", err)
	}
	if !reissue {
		t.Fatal("N-1 ticket not flagged for reissue")
	}
	if !bytes.Equal(got, psk) {
		t.Fatal("psk mismatch")
	}

	// Second rotation ages generation 1 out entirely.
	if err := ks.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ks.OpenTicket(gen1); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("aged-out ticket: got %v, want ErrBadTicket", err)
	}
	if n := ks.Len(); n != DefaultAcceptWindow {
		t.Fatalf("accepted generations = %d, want %d", n, DefaultAcceptWindow)
	}

	// The rotated state persisted: a reopen accepts current-gen tickets
	// and still rejects the aged-out one.
	cur, err := ks.Seal(psk)
	if err != nil {
		t.Fatal(err)
	}
	ks2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ks2.OpenTicket(cur); err != nil {
		t.Fatalf("current ticket after reopen: %v", err)
	}
	if _, _, _, err := ks2.OpenTicket(gen1); !errors.Is(err, ErrBadTicket) {
		t.Fatal("aged-out ticket accepted after reopen")
	}
}

func TestOpenTicketRejectsForgery(t *testing.T) {
	ks, err := NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	ticket, err := ks.Seal(bytes.Repeat([]byte{2}, 32))
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func([]byte){
		func(b []byte) { b[0] ^= 1 },            // generation tag
		func(b []byte) { b[5] ^= 1 },            // nonce
		func(b []byte) { b[len(b)-1] ^= 1 },     // tag
		func(b []byte) { b[genLen+13] ^= 0x80 }, // ciphertext
	} {
		forged := append([]byte(nil), ticket...)
		mutate(forged)
		if _, _, _, err := ks.OpenTicket(forged); !errors.Is(err, ErrBadTicket) {
			t.Fatalf("forged ticket accepted: %v", err)
		}
	}
	if _, _, _, err := ks.OpenTicket(nil); !errors.Is(err, ErrBadTicket) {
		t.Fatal("empty ticket accepted")
	}
}

func TestKeyFileRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys")
	if _, err := Open(path, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i += 7 {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		badPath := path + ".bad"
		if err := os.WriteFile(badPath, bad, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(badPath, nil); !errors.Is(err, ErrBadKeyFile) {
			t.Fatalf("corrupt byte %d: got %v, want ErrBadKeyFile", i, err)
		}
	}
}

func TestReplayStrikes(t *testing.T) {
	now := time.Unix(1000, 0)
	r := NewReplay(time.Second, 8, now)
	var n1, n2 [ticketNonceLen]byte
	n1[0], n2[0] = 1, 2

	if !r.ObserveFresh(n1, now, now) {
		t.Fatal("first sighting rejected")
	}
	if r.ObserveFresh(n1, now, now) {
		t.Fatal("replay accepted")
	}
	if !r.ObserveFresh(n2, now.Add(500*time.Millisecond), now.Add(500*time.Millisecond)) {
		t.Fatal("distinct nonce rejected")
	}
	// One window later: n1 moved to prev, still remembered.
	if r.ObserveFresh(n1, now.Add(1200*time.Millisecond), now.Add(1200*time.Millisecond)) {
		t.Fatal("replay accepted after one window rotation")
	}
	// More than two windows later: forgotten, accepted as new.
	if !r.ObserveFresh(n1, now.Add(5*time.Second), now.Add(5*time.Second)) {
		t.Fatal("nonce not forgotten after both windows aged out")
	}
}

func TestReplayBoundedAndFailSafe(t *testing.T) {
	now := time.Unix(2000, 0)
	r := NewReplay(time.Minute, 4, now)
	var n [ticketNonceLen]byte
	for i := 0; i < 4; i++ {
		n[0] = byte(i)
		if !r.ObserveFresh(n, now, now) {
			t.Fatalf("sighting %d rejected below capacity", i)
		}
	}
	// At capacity: fresh nonces are rejected (fail safe), not admitted.
	n[0] = 0xff
	if r.ObserveFresh(n, now, now) {
		t.Fatal("over-capacity sighting accepted")
	}
	if e := r.Entries(); e > 2*4 {
		t.Fatalf("entries = %d, exceeds 2x capacity bound", e)
	}
}

func TestObserveFreshGates(t *testing.T) {
	birth := time.Unix(3000, 0)
	r := NewReplay(time.Second, 8, birth)
	var n [ticketNonceLen]byte

	// Issued before the register existed: the flight could have been
	// recorded against a previous process. Rejected.
	n[0] = 1
	if r.ObserveFresh(n, birth.Add(-time.Millisecond), birth) {
		t.Fatal("pre-birth ticket accepted")
	}
	// Older than one window: the register may have forgotten it.
	n[0] = 2
	if r.ObserveFresh(n, birth.Add(time.Second), birth.Add(2*time.Second+time.Millisecond)) {
		t.Fatal("stale ticket accepted")
	}
	// Issued in the future (clock skew): could outlive register memory.
	n[0] = 3
	if r.ObserveFresh(n, birth.Add(2*time.Second), birth.Add(time.Second)) {
		t.Fatal("future-issued ticket accepted")
	}
	// Fresh first sighting accepted, replay struck — even right at the
	// freshness boundary, where the strike must still be remembered.
	n[0] = 4
	issued := birth.Add(time.Second)
	if !r.ObserveFresh(n, issued, issued) {
		t.Fatal("fresh first sighting rejected")
	}
	if r.ObserveFresh(n, issued, issued.Add(time.Second)) {
		t.Fatal("replay at the freshness boundary accepted")
	}
}

func TestObserveFreshSingleUseAcrossRotation(t *testing.T) {
	// The invariant the gates exist for: however the observation times
	// fall against window rotations, a nonce ObserveFresh accepted is
	// never accepted again.
	base := time.Unix(4000, 0)
	r := NewReplay(time.Second, 64, base)
	var n [ticketNonceLen]byte
	for i := 0; i < 40; i++ {
		n[0] = byte(i)
		issued := base.Add(time.Duration(i*37) * time.Millisecond)
		first := issued.Add(time.Duration(i%7) * 100 * time.Millisecond)
		if !r.ObserveFresh(n, issued, first) {
			continue // rejected outright is fine; it must stay rejected
		}
		for _, dt := range []time.Duration{0, 300 * time.Millisecond, 700 * time.Millisecond, time.Second} {
			at := first.Add(dt)
			if at.Sub(issued) > time.Second {
				break
			}
			if r.ObserveFresh(n, issued, at) {
				t.Fatalf("nonce %d re-accepted %v after first sighting", i, dt)
			}
		}
	}
}

func TestTicketNonceMatchesSeal(t *testing.T) {
	ks, err := NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	t1, err := ks.Seal(bytes.Repeat([]byte{3}, 32))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ks.Seal(bytes.Repeat([]byte{3}, 32))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := TicketNonce(t1)
	if !ok {
		t.Fatal("nonce extraction failed")
	}
	b, ok := TicketNonce(t2)
	if !ok {
		t.Fatal("nonce extraction failed")
	}
	if a == b {
		t.Fatal("two seals produced the same nonce")
	}
	if _, ok := TicketNonce([]byte{1, 2, 3}); ok {
		t.Fatal("short ticket yielded a nonce")
	}
}
