package core

import (
	"cmp"
	"slices"
	"sync"

	"tcpls/internal/record"
)

// outChunkBytes is the capacity of every output chunk: sixteen full
// records, about one 256 KiB read on the far side. One size for all, so
// a recycled chunk always fits the next fill and sealing never grows one.
const outChunkBytes = 16 * record.MaxRecordLen

// outChunks recycles output chunks across all sessions, so a short
// session's first flush finds a warm buffer too.
var outChunks = sync.Pool{New: func() any { return new(chunk) }}

// chunk is one output chunk. It carries sealed records from the engine
// to a connection's writer and, with failover on, keeps every data
// record sealed into it for replay until the record is acknowledged
// (DESIGN.md §16): a chunk goes back to outChunks only once the writer
// has recycled it and nothing retained is left in it.
type chunk struct {
	data [outChunkBytes]byte
	b    []byte // the sealed part of data
	// live counts the unacknowledged records retained in data and
	// liveBytes their wire bytes; recs names every data record ever homed
	// here, which is how evacuate finds the live ones. pin is one plus the
	// chunk's index in Session.pinned: 0 until its writer recycles it.
	live, liveBytes int
	recs            []spanKey
	pin             int
}

// getChunk takes an empty chunk from the pool.
func getChunk() *chunk {
	ch := outChunks.Get().(*chunk)
	ch.b, ch.recs = ch.data[:0], ch.recs[:0]
	return ch
}

// keep homes r in ch, the chunk its sealed bytes wire were written into.
func (ch *chunk) keep(r *sentRecord, stream uint32, wire []byte) {
	r.wire, r.in = wire[:len(wire):len(wire)], ch
	ch.live++
	ch.liveBytes += len(wire)
	ch.recs = append(ch.recs, spanKey{stream: stream, seq: r.seq})
}

// drop ends r's retention: the Buf it moved into is released, or its
// chunk loses a retained record and goes back to the pool when that was
// the last one and no writer has it.
func (s *Session) drop(r *sentRecord) {
	if ch := r.in; ch != nil {
		ch.live--
		ch.liveBytes -= len(r.wire)
		if ch.pin > 0 {
			s.pinnedBytes -= len(r.wire)
			if ch.live == 0 {
				s.unpin(ch)
				outChunks.Put(ch)
			}
		}
	}
	r.moved.Release()
	r.wire, r.in, r.moved = nil, nil, nil
}

// settle files a chunk its writer has recycled: back to the pool when it
// retains nothing, pinned by its retained records when they fill at
// least half of it, else evacuated at once, while the writer has just
// read them: a chunk handed over before it filled will not fill later.
func (s *Session) settle(ch *chunk) {
	switch {
	case ch.live == 0:
		outChunks.Put(ch)
	case ch.liveBytes*2 < outChunkBytes:
		s.evacuate(ch)
	default:
		s.pinned = append(s.pinned, ch)
		ch.pin = len(s.pinned)
		s.pinnedBytes += ch.liveBytes
	}
}

// unpin takes ch off the pinned list, if it is on it.
func (s *Session) unpin(ch *chunk) {
	if ch.pin == 0 {
		return
	}
	last := s.pinned[len(s.pinned)-1]
	s.pinned[ch.pin-1], last.pin = last, ch.pin
	s.pinned[len(s.pinned)-1] = nil
	s.pinned = s.pinned[:len(s.pinned)-1]
	s.pinnedBytes -= ch.liveBytes
	ch.pin = 0
}

// boundPinned is the sparse-chunk bound: pinned chunks may take twice
// the record bytes they retain, plus one chunk per connection for the
// ack that trails each chunk's recycling. Past it, every pinned chunk
// less than half full is evacuated, leaving only chunks at least half
// full. A peer withholding acks on one stream of a connection thus pins
// no more than that, where one withheld record could pin a whole chunk.
func (s *Session) boundPinned() {
	if (len(s.pinned)-len(s.conns))*outChunkBytes <= 2*s.pinnedBytes {
		return
	}
	for i := 0; i < len(s.pinned); {
		if ch := s.pinned[i]; ch.liveBytes*2 < outChunkBytes {
			s.evacuate(ch) // moves the last pinned chunk into slot i
		} else {
			i++
		}
	}
}

// evacuate moves the records ch retains, each into a pooled Buf of its
// own, and returns ch to the pool. A Buf is never evacuated, so a record
// moves at most once.
func (s *Session) evacuate(ch *chunk) {
	for _, k := range ch.recs {
		st := s.streams[k.stream]
		i, ok := slices.BinarySearchFunc(st.retransmit, k.seq, func(r sentRecord, seq uint64) int {
			return cmp.Compare(r.seq, seq)
		})
		if !ok {
			continue // acknowledged
		}
		if r := &st.retransmit[i]; r.in == ch {
			r.moved = s.bufs.Copy(r.wire)
			r.wire, r.in = r.moved.Bytes(), nil
		}
	}
	s.unpin(ch)
	ch.live, ch.liveBytes = 0, 0
	outChunks.Put(ch)
}
