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

// segQueue is the receive-side byte FIFO: a list of MaxPlaintextLen
// segments borrowed from the session's BufferPool. Append and ReadInto
// copy each byte once and never move it again; a drained segment goes
// back to the pool at once, so an empty queue holds none. (A contiguous
// array was re-grown by doubling on every swing of a lagging reader.)
type segQueue struct {
	pool *record.BufferPool
	segs []*record.Buf // segs[first:] are live, all full but the last
	// first indexes the oldest live segment; head and tail are the read
	// offset within it and the write offset within the newest one.
	first, head, tail int
	n                 int
}

// Len reports the number of unread bytes.
func (q *segQueue) Len() int { return q.n }

// Append copies p onto the tail.
func (q *segQueue) Append(p []byte) {
	q.n += len(p)
	for len(p) > 0 {
		if q.first == len(q.segs) || q.tail == record.MaxPlaintextLen {
			if q.first > 0 && len(q.segs) == cap(q.segs) {
				// Slide the live pointers down before append would
				// re-grow the slice around a dead prefix.
				live := copy(q.segs, q.segs[q.first:])
				clear(q.segs[live:])
				q.segs, q.first = q.segs[:live], 0
			}
			q.segs = append(q.segs, q.pool.Get(record.MaxPlaintextLen))
			q.tail = 0
		}
		c := copy(q.segs[len(q.segs)-1].Bytes()[q.tail:], p)
		q.tail += c
		p = p[c:]
	}
}

// ReadInto copies up to len(p) bytes out of the queue, consumes them
// and releases every segment it empties.
func (q *segQueue) ReadInto(p []byte) int {
	read := 0
	for read < len(p) && q.n > 0 {
		seg := q.segs[q.first]
		end := record.MaxPlaintextLen
		if q.first == len(q.segs)-1 {
			end = q.tail
		}
		c := copy(p[read:], seg.Bytes()[q.head:end])
		read, q.head, q.n = read+c, q.head+c, q.n-c
		if q.head == end {
			seg.Release()
			q.segs[q.first] = nil
			q.first, q.head = q.first+1, 0
		}
	}
	if q.n == 0 {
		q.segs, q.first = q.segs[:0], 0
	}
	return read
}
