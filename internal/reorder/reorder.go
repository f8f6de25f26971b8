// Package reorder provides the efficient reordering heap TCPLS uses for
// coupled streams (paper §4.3): records arriving out of aggregation-
// sequence order are pushed on a min-heap and popped as the contiguous
// prefix fills in. In-sequence records bypass the heap entirely, which is
// what lets the receive path stay zero-copy when paths do not reorder.
package reorder

import "container/heap"

// Item is one out-of-order unit awaiting delivery; Owner, when set, is
// the pooled buffer behind Data.
type Item struct {
	Seq   uint64
	Data  []byte
	Owner Releaser
}

// Releaser is released exactly once, by Recycle, after its item has left the heap.
type Releaser interface{ Release() }

type itemHeap []Item

func (h itemHeap) Len() int            { return len(h) }
func (h itemHeap) Less(i, j int) bool  { return h[i].Seq < h[j].Seq }
func (h itemHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x interface{}) { *h = append(*h, x.(Item)) }
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = Item{}
	*h = old[:n-1]
	return it
}

// Buffer reassembles a sequence of items into delivery order. Next is the
// sequence number of the item the consumer needs next.
type Buffer struct {
	next  uint64
	heap  itemHeap
	bytes int // buffered payload bytes, for accounting
	// out backs the slice Offer returns; left collects the owners of
	// items off the heap, delivered or discarded, until Recycle.
	out  [][]byte
	left []Releaser
}

// New returns a Buffer expecting firstSeq as its first item.
func New(firstSeq uint64) *Buffer { return &Buffer{next: firstSeq} }

// Next returns the next in-order sequence number the buffer expects.
func (b *Buffer) Next() uint64 { return b.next }

// Pending returns the number of items parked in the heap.
func (b *Buffer) Pending() int { return len(b.heap) }

// PendingBytes returns the payload bytes parked in the heap.
func (b *Buffer) PendingBytes() int { return b.bytes }

// Offer hands one item to the buffer. It returns the data that became
// deliverable, in order; the returned slice is reused by the next Offer
// or Park. The common case — item arrives in sequence and
// nothing is parked — returns the item's own slice without copying.
// Duplicates (seq < next, or already parked) are discarded; a duplicate
// of a parked item is detected at pop time, not push time, so Offer
// never scans the heap — under deep reorder the old per-Offer linear
// walk made the push path O(n²). The cost of lazy dedup is a transient
// double-count in Pending/PendingBytes while both copies sit parked.
func (b *Buffer) Offer(seq uint64, data []byte) [][]byte {
	if seq < b.next {
		return nil // duplicate of something already delivered
	}
	if seq == b.next && len(b.heap) == 0 {
		b.next++
		b.out = append(b.out[:0], data)
		return b.out // fast path: zero copy, no heap traffic
	}
	if seq > b.next {
		b.Park(seq, data, nil)
		return nil
	}
	// seq == next with parked items: deliver it plus the contiguous run,
	// discarding parked duplicates interleaved with the run as they
	// surface at the top of the heap.
	b.out = append(b.out[:0], data)
	b.next++
	for len(b.heap) > 0 && b.heap[0].Seq <= b.next {
		it := heap.Pop(&b.heap).(Item)
		b.bytes -= len(it.Data)
		if it.Owner != nil {
			b.left = append(b.left, it.Owner)
		}
		if it.Seq < b.next {
			continue // duplicate of something already delivered
		}
		b.out = append(b.out, it.Data)
		b.next++
	}
	return b.out
}

// Park pushes an item ahead of its turn (seq > Next) whose storage is
// owner's; data a later Offer returns stays readable until Recycle.
func (b *Buffer) Park(seq uint64, data []byte, owner Releaser) {
	heap.Push(&b.heap, Item{Seq: seq, Data: data, Owner: owner})
	b.bytes += len(data)
}

// Recycle releases the owners of every item that has left the heap.
// Call it when done with what Offer returned.
func (b *Buffer) Recycle() {
	for _, o := range b.left {
		o.Release()
	}
	clear(b.left)
	b.left = b.left[:0]
}

// Reset empties the buffer and restarts at firstSeq.
func (b *Buffer) Reset(firstSeq uint64) {
	for _, it := range b.heap {
		if it.Owner != nil {
			b.left = append(b.left, it.Owner)
		}
	}
	clear(b.heap)
	b.Recycle()
	b.next, b.heap, b.bytes = firstSeq, b.heap[:0], 0
}
