// Package reorder provides the efficient reordering heap TCPLS uses for
// coupled streams (paper §4.3): records arriving out of aggregation-
// sequence order are pushed on a min-heap and popped as the contiguous
// prefix fills in. In-sequence records bypass the heap entirely, which is
// what lets the receive path stay zero-copy when paths do not reorder.
package reorder

import (
	"container/heap"

	"tcpls/internal/record"
)

// Item is one unit in delivery order; Owner, when set, is the pooled
// buffer behind Data.
type Item struct {
	Seq   uint64
	Data  []byte
	Owner *record.Buf
}

// Buffer reassembles a sequence of items into delivery order. Next is the
// sequence number of the item the consumer needs next. Parking an item
// allocates nothing once the heap has grown.
type Buffer struct {
	next  uint64
	heap  itemHeap
	bytes int    // buffered payload bytes, for accounting
	out   []Item // backs the slice Offer returns
}

// New returns a Buffer expecting firstSeq as its first item.
func New(firstSeq uint64) *Buffer { return &Buffer{next: firstSeq} }

// Next returns the next in-order sequence number the buffer expects.
func (b *Buffer) Next() uint64 { return b.next }

// Pending returns the number of items parked in the heap.
func (b *Buffer) Pending() int { return len(b.heap) }

// PendingBytes returns the payload bytes parked in the heap.
func (b *Buffer) PendingBytes() int { return b.bytes }

// Offer hands one item to the buffer. It returns the items that became
// deliverable, in order, in a slice the next Offer reuses. An item ahead
// of its turn parks, and its data must stay valid until it is returned.
// The common case — the item arrives in sequence and nothing is parked —
// returns the item itself without heap traffic. Duplicates (seq < next,
// or already parked) are discarded; a duplicate of a parked item is
// detected at pop time, not push time, so Offer never scans the heap —
// under deep reorder the old per-Offer linear walk made the push path
// O(n²). The cost of lazy dedup is a transient double-count in
// Pending/PendingBytes while both copies sit parked.
func (b *Buffer) Offer(seq uint64, data []byte) []Item { return b.OfferOwned(seq, data, nil) }

// OfferOwned is Offer for data that lives in owner, a pooled buffer (or
// nil). The item carries owner through the heap, and the caller takes
// over the owners of the items returned; the buffer releases the owner
// of a duplicate it discards.
func (b *Buffer) OfferOwned(seq uint64, data []byte, owner *record.Buf) []Item {
	switch {
	case seq < b.next:
		owner.Release() // duplicate of something already delivered
		return nil
	case seq > b.next:
		b.heap.push(Item{Seq: seq, Data: data, Owner: owner})
		b.bytes += len(data)
		return nil
	}
	// Deliver it plus the contiguous run, discarding parked duplicates
	// interleaved with the run as they surface at the top of the heap.
	b.out = append(b.out[:0], Item{Seq: seq, Data: data, Owner: owner})
	b.next++
	for len(b.heap) > 0 && b.heap[0].Seq <= b.next {
		it := b.heap.pop()
		b.bytes -= len(it.Data)
		if it.Seq < b.next {
			it.Owner.Release() // duplicate of something already delivered
			continue
		}
		b.out = append(b.out, it)
		b.next++
	}
	return b.out
}

// Reset empties the buffer, releasing parked owners, and restarts at
// firstSeq.
func (b *Buffer) Reset(firstSeq uint64) {
	for _, it := range b.heap {
		it.Owner.Release()
	}
	clear(b.heap)
	b.next, b.heap, b.bytes = firstSeq, b.heap[:0], 0
}

// itemHeap is a min-heap on Seq. Items go in and out by value through
// push and pop: container/heap's own Push and Pop would box each one in
// an interface, an allocation per parked record.
type itemHeap []Item

func (h itemHeap) Len() int           { return len(h) }
func (h itemHeap) Less(i, j int) bool { return h[i].Seq < h[j].Seq }
func (h itemHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(any)          { panic("reorder: use push") }
func (h *itemHeap) Pop() any          { panic("reorder: use pop") }

func (h *itemHeap) push(it Item) {
	*h = append(*h, it)
	heap.Fix(h, len(*h)-1)
}

// pop removes and returns the lowest-Seq item.
func (h *itemHeap) pop() Item {
	old, n := *h, len(*h)-1
	top := old[0]
	old[0], old[n] = old[n], Item{}
	*h = old[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return top
}
