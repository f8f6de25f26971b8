package core

import "tcpls/internal/record"

// byteQueue is the offset-based byte FIFO behind the pending (unsealed)
// send queues. It keeps its backing array across fill/drain cycles, so
// a steady writer allocates nothing.
//
// Aliasing contract: slices returned by Bytes remain valid across
// Advance (the backing array is untouched) but are invalidated by the
// next Append, which may compact the consumed prefix away. The engine
// only holds Bytes views inside a single Flush pass, never across an
// Append.
type byteQueue struct {
	buf []byte
	off int
}

// Len reports the number of unconsumed bytes.
func (q *byteQueue) Len() int { return len(q.buf) - q.off }

// Bytes returns a view of the unconsumed bytes.
func (q *byteQueue) Bytes() []byte { return q.buf[q.off:] }

// Append adds p to the tail, compacting the consumed prefix first when
// it is at least as large as the live tail (amortized O(1) per byte).
func (q *byteQueue) Append(p []byte) {
	if q.off > 0 && q.off >= len(q.buf)-q.off {
		n := copy(q.buf, q.buf[q.off:])
		q.buf, q.off = q.buf[:n], 0
	}
	q.buf = append(q.buf, p...)
}

// Advance consumes n bytes from the front.
func (q *byteQueue) Advance(n int) {
	q.off += n
	if q.off >= len(q.buf) {
		if q.off > len(q.buf) {
			panic("core: byteQueue advanced past its end")
		}
		q.buf, q.off = q.buf[:0], 0
	}
}

// segQueue is the receive-side byte FIFO: a list of pooled Bufs, each
// with a live window. Adopt takes the Buf a record was decrypted into by
// reference; Append copies into the free tail of the newest Buf, then
// into fresh ones from the session's BufferPool. ReadInto copies each
// byte out once, and a drained Buf goes back at once, so an empty queue
// holds none.
type segQueue struct {
	pool *record.BufferPool
	segs []seg // segs[first:] are live
	// first indexes the oldest live segment; n counts unread bytes.
	first, n int
}

// seg is one queued Buf; b.Bytes()[lo:hi] is unread.
type seg struct {
	b      *record.Buf
	lo, hi int
}

// Len reports the number of unread bytes.
func (q *segQueue) Len() int { return q.n }

// Adopt queues the first n bytes of b, taking over b.
func (q *segQueue) Adopt(b *record.Buf, n int) {
	if q.first > 0 && len(q.segs) == cap(q.segs) {
		// Slide the live segments down before append would re-grow the
		// slice around a dead prefix.
		live := copy(q.segs, q.segs[q.first:])
		clear(q.segs[live:])
		q.segs, q.first = q.segs[:live], 0
	}
	q.segs = append(q.segs, seg{b: b, hi: n})
	q.n += n
}

// Append copies p onto the tail.
func (q *segQueue) Append(p []byte) {
	for len(p) > 0 {
		if q.first == len(q.segs) || q.segs[len(q.segs)-1].hi == record.MaxRecordLen {
			q.Adopt(q.pool.Get(record.MaxRecordLen), 0)
		}
		t := &q.segs[len(q.segs)-1]
		c := copy(t.b.Bytes()[t.hi:], p)
		t.hi += c
		q.n += c
		p = p[c:]
	}
}

// ReadInto copies up to len(p) bytes out of the queue, consumes them
// and releases every segment it empties.
func (q *segQueue) ReadInto(p []byte) int {
	read := 0
	for read < len(p) && q.n > 0 {
		h := &q.segs[q.first]
		c := copy(p[read:], h.b.Bytes()[h.lo:h.hi])
		read, h.lo, q.n = read+c, h.lo+c, q.n-c
		if h.lo == h.hi {
			h.b.Release()
			q.segs[q.first] = seg{}
			q.first++
		}
	}
	if q.n == 0 {
		q.segs, q.first = q.segs[:0], 0
	}
	return read
}
