package record

import (
	"sync"
	"sync/atomic"
)

// Buf is one pooled record buffer, MaxRecordLen bytes: room for a whole
// sealed record, or for the inner plaintext of any record the deframer
// accepts, so a record decrypted into a Buf never outgrows it. The
// engine decrypts every received record into one, and a receive queue or
// the reorder heap may keep it by reference; a retained sealed record
// moves into one when its output chunk goes sparse. A Buf has one owner,
// which Releases it once, returning the buffer to the store.
//
// Ownership rule: only the owner may read Bytes; once released the
// storage may be handed to an unrelated record, so a released Buf must
// never be read again (DESIGN.md §16). Under the race detector Release
// fills the bytes with PoisonByte instead, and the storage never returns
// to the store, so a read after release shows as corrupt bytes.
type Buf struct {
	data []byte
	pool *BufferPool // nil while the Buf is in the store
}

// Bytes returns the buffer's payload. Valid only until Release.
func (b *Buf) Bytes() []byte { return b.data }

// Release returns the buffer to the store. nil-safe so callers can
// release optional buffers blindly; a second release panics.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	p := b.pool
	if p == nil {
		panic("record: Buf released twice")
	}
	b.pool = nil
	p.puts.Add(1)
	recycle(b)
}

// bufStore is the storage behind every BufferPool, shared process-wide
// so a new session's first record finds a warm buffer.
var bufStore = sync.Pool{New: func() any { return &Buf{data: make([]byte, 0, MaxRecordLen)} }}

// BufferPool hands out Bufs from the process-wide store and counts the
// logical gets and puts of one owner, so the owner can assert balance:
// at session close every buffer handed out must have been released
// (gets == puts), which is exactly the "no recycled buffer is ever held
// past its release" invariant the chaos campaigns exercise.
type BufferPool struct {
	gets atomic.Uint64
	puts atomic.Uint64
}

// NewBufferPool builds an owner's counters over the shared store.
func NewBufferPool() *BufferPool { return &BufferPool{} }

// Get returns a buffer of length n. Buffers are recycled storage: the
// contents are arbitrary until written.
func (p *BufferPool) Get(n int) *Buf {
	b := bufStore.Get().(*Buf)
	if cap(b.data) < n {
		b.data = make([]byte, n)
	} else {
		b.data = b.data[:n]
	}
	b.pool = p
	p.gets.Add(1)
	return b
}

// Copy returns a pooled buffer holding a copy of payload.
func (p *BufferPool) Copy(payload []byte) *Buf {
	b := p.Get(len(payload))
	copy(b.data, payload)
	return b
}

// Stats reports the pool's logical get/put counters.
func (p *BufferPool) Stats() (gets, puts uint64) {
	return p.gets.Load(), p.puts.Load()
}
