//go:build race

package record

import "testing"

// TestReleasePoisonsUnderRace: a view of a released Buf reads the poison,
// and the next Get does not hand out the released storage.
func TestReleasePoisonsUnderRace(t *testing.T) {
	p := NewBufferPool()
	b := p.Copy([]byte("secret record"))
	view := b.Bytes()
	b.Release()
	for i, c := range view {
		if c != PoisonByte {
			t.Fatalf("byte %d of a released Buf reads %#x, want %#x", i, c, PoisonByte)
		}
	}
	if n := p.Get(len(view)); &n.Bytes()[0] == &view[0] {
		t.Fatal("released storage handed out again")
	}
	if gets, puts := p.Stats(); gets != 2 || puts != 1 {
		t.Fatalf("books %d gets / %d puts, want 2 / 1", gets, puts)
	}
}
