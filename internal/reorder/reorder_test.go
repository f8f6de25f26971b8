package reorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tcpls/internal/record"
)

// offer hands data to b and returns what became deliverable.
func offer(b *Buffer, seq uint64, data []byte) [][]byte {
	var out [][]byte
	for _, it := range b.Offer(seq, data) {
		out = append(out, it.Data)
	}
	return out
}

func TestInOrderFastPath(t *testing.T) {
	b := New(0)
	for i := uint64(0); i < 100; i++ {
		data := []byte{byte(i)}
		out := offer(b, i, data)
		if len(out) != 1 || &out[0][0] != &data[0] {
			t.Fatalf("seq %d: in-order item not returned zero-copy", i)
		}
	}
	if b.Pending() != 0 {
		t.Fatal("heap grew on in-order delivery")
	}
}

func TestSimpleReorder(t *testing.T) {
	b := New(0)
	if out := offer(b, 1, []byte{1}); out != nil {
		t.Fatal("out-of-order item delivered early")
	}
	if b.Pending() != 1 || b.PendingBytes() != 1 {
		t.Fatalf("pending=%d bytes=%d", b.Pending(), b.PendingBytes())
	}
	out := offer(b, 0, []byte{0})
	if len(out) != 2 || out[0][0] != 0 || out[1][0] != 1 {
		t.Fatalf("got %v", out)
	}
	if b.Next() != 2 || b.Pending() != 0 || b.PendingBytes() != 0 {
		t.Fatalf("state after drain: next=%d pending=%d", b.Next(), b.Pending())
	}
}

func TestDuplicatesDiscarded(t *testing.T) {
	b := New(0)
	offer(b, 0, []byte{0})
	if out := offer(b, 0, []byte{0}); out != nil {
		t.Fatal("delivered duplicate")
	}
	offer(b, 2, []byte{2})
	if out := offer(b, 2, []byte{2}); out != nil {
		t.Fatal("parked duplicate accepted")
	}
	out := offer(b, 1, []byte{1})
	if len(out) != 2 {
		t.Fatalf("got %d items, want 2", len(out))
	}
}

func TestStaleParkedDuplicatesDropped(t *testing.T) {
	// Park 2 and 3, then deliver 1..3 via a retransmission burst that
	// also includes stale copies.
	b := New(1)
	offer(b, 3, []byte{3})
	offer(b, 2, []byte{2})
	out := offer(b, 1, []byte{1})
	if len(out) != 3 {
		t.Fatalf("got %d items", len(out))
	}
	for i, want := range []byte{1, 2, 3} {
		if out[i][0] != want {
			t.Fatalf("out[%d]=%d want %d", i, out[i][0], want)
		}
	}
}

func TestInterleavedDuplicatesInRun(t *testing.T) {
	// Parked duplicates (lazy dedup: Offer no longer scans the heap) must
	// not stall the contiguous run or corrupt the bytes accounting.
	b := New(1)
	offer(b, 2, []byte{2})
	offer(b, 2, []byte{2, 2}) // duplicate parks too, double-counting bytes
	offer(b, 4, []byte{4})
	offer(b, 3, []byte{3})
	offer(b, 3, []byte{3, 3})
	if b.Pending() != 5 || b.PendingBytes() != 7 {
		t.Fatalf("parked=%d bytes=%d, want 5/7 (duplicates double-count while parked)",
			b.Pending(), b.PendingBytes())
	}
	out := offer(b, 1, []byte{1})
	var got []byte
	for _, d := range out {
		got = append(got, d[0])
	}
	if string(got) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("delivered %v, want [1 2 3 4]", got)
	}
	if b.Pending() != 0 || b.PendingBytes() != 0 {
		t.Fatalf("after drain: parked=%d bytes=%d, want 0/0", b.Pending(), b.PendingBytes())
	}
}

func TestDuplicateOfDeliveredSeqDropsAtPop(t *testing.T) {
	// A duplicate parked behind a not-yet-delivered copy of the same seq
	// is discarded when it surfaces, never delivered twice.
	b := New(0)
	offer(b, 1, []byte{1})
	offer(b, 1, []byte{1})
	offer(b, 1, []byte{1})
	out := offer(b, 0, []byte{0})
	if len(out) != 2 || out[0][0] != 0 || out[1][0] != 1 {
		t.Fatalf("got %v, want [[0] [1]]", out)
	}
	if b.Pending() != 0 || b.PendingBytes() != 0 {
		t.Fatalf("dup copies leaked: parked=%d bytes=%d", b.Pending(), b.PendingBytes())
	}
}

func TestReset(t *testing.T) {
	b := New(0)
	offer(b, 5, []byte{5})
	b.Reset(10)
	if b.Next() != 10 || b.Pending() != 0 {
		t.Fatal("reset failed")
	}
	out := offer(b, 10, []byte{10})
	if len(out) != 1 {
		t.Fatal("offer after reset failed")
	}
}

func TestRandomPermutationsDeliverInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		perm := rng.Perm(n)
		b := New(0)
		var delivered []byte
		for _, p := range perm {
			for _, d := range offer(b, uint64(p), []byte{byte(p)}) {
				delivered = append(delivered, d[0])
			}
		}
		if len(delivered) != n {
			t.Fatalf("trial %d: delivered %d of %d", trial, len(delivered), n)
		}
		for i := 0; i < n; i++ {
			if delivered[i] != byte(i) {
				t.Fatalf("trial %d: delivered[%d]=%d", trial, i, delivered[i])
			}
		}
	}
}

func TestQuickNeverDeliversOutOfOrder(t *testing.T) {
	f := func(seqs []uint16) bool {
		b := New(0)
		last := -1
		for _, s := range seqs {
			seq := uint64(s % 64)
			for _, d := range offer(b, seq, []byte{byte(seq)}) {
				if int(d[0]) <= last {
					return false
				}
				last = int(d[0])
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInOrder(b *testing.B) {
	buf := New(0)
	data := make([]byte, 16384)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		buf.Offer(uint64(i), data)
	}
}

func BenchmarkDeepReorder(b *testing.B) {
	// Worst-case reorder depth: each block of deepReorderD records
	// arrives fully reversed, so the heap deepens to D-1 before the gap
	// fills and the whole block drains. The old Offer-side duplicate
	// scan walked the heap on every push — O(D) per record, O(D²) per
	// block; without it each push is O(log D).
	const D = 4096
	buf := New(0)
	data := make([]byte, 256)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		block := uint64(i/D) * D
		buf.Offer(block+uint64(D-1-i%D), data)
	}
}

func BenchmarkTwoPathInterleave(b *testing.B) {
	// Two paths delivering alternating blocks out of order — the Fig. 11
	// aggregation pattern. Within each block of 8, the even sequence
	// numbers (fast path) land before the odd ones (slow path).
	buf := New(0)
	data := make([]byte, 16384)
	b.SetBytes(int64(len(data)))
	order := [8]uint64{0, 2, 4, 6, 1, 3, 5, 7}
	for i := 0; i < b.N; i++ {
		seq := uint64(i/8)*8 + order[i%8]
		buf.Offer(seq, data)
	}
}

// TestParkedOwnersReleasedExactlyOnce: every owner handed to OfferOwned is
// released once — by the caller for an item Offer returned, by the
// buffer for a duplicate, whether offered late or parked twice, and by
// Reset for one still parked.
func TestParkedOwnersReleasedExactlyOnce(t *testing.T) {
	pool := record.NewBufferPool()
	b := New(0)
	own := func(v byte) ([]byte, *record.Buf) {
		o := pool.Copy([]byte{v})
		return o.Bytes(), o
	}
	for _, v := range []byte{1, 1, 2, 5} { // the second 1 parks too, dropped when it surfaces
		data, o := own(v)
		b.OfferOwned(uint64(v), data, o)
	}
	out := b.Offer(0, []byte{0})
	if _, puts := pool.Stats(); len(out) != 3 || puts != 1 {
		t.Fatalf("delivered %d items with %d owners released, want 3 and 1 (the duplicate)", len(out), puts)
	}
	for i, it := range out {
		if it.Data[0] != byte(i) {
			t.Fatalf("delivered %v", out)
		}
		it.Owner.Release()
	}
	data, o := own(2)
	b.OfferOwned(2, data, o) // behind its turn: released at once
	b.Reset(0)
	if gets, puts := pool.Stats(); gets != puts || b.Pending() != 0 {
		t.Fatalf("%d gets, %d puts after Reset with %d parked", gets, puts, b.Pending())
	}
}
