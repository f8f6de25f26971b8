package record

// Demux recovers the implicit stream ID of incoming records by trial
// decryption (paper §3.3.1, §4.1). The stream ID is deliberately absent
// from the wire — a TCPLS record must be indistinguishable from a TLS 1.3
// AppData record — so the receiver checks the AEAD tag against the
// cryptographic context of each stream attached to the TCP connection the
// record arrived on, trying the stream that matched last time first.
//
// The search cost is bounded by the number of streams attached to one
// connection, and in the common case (sender keeps scheduling the same
// stream) the first probe hits.
type Demux struct {
	contexts []*StreamContext
	last     int // index of the last successful context
	// Probes counts tag checks performed, including successful ones.
	// The paper treats each failed check as a forgery attempt against
	// the AEAD limits; exposing the count lets tests and benchmarks
	// verify the last-successful-first optimization.
	Probes uint64
}

// Attach adds a stream context to the trial set.
func (m *Demux) Attach(c *StreamContext) { m.contexts = append(m.contexts, c) }

// Detach removes the context for streamID, if present.
func (m *Demux) Detach(streamID uint32) {
	for i, c := range m.contexts {
		if c.streamID == streamID {
			m.contexts = append(m.contexts[:i], m.contexts[i+1:]...)
			if m.last >= len(m.contexts) {
				m.last = 0
			}
			return
		}
	}
}

// Streams returns the number of attached contexts.
func (m *Demux) Streams() int { return len(m.contexts) }

// Context returns the attached context for streamID, or nil.
func (m *Demux) Context(streamID uint32) *StreamContext {
	for _, c := range m.contexts {
		if c.streamID == streamID {
			return c
		}
	}
	return nil
}

// Open finds the stream whose context authenticates rec, decrypts the
// record into dst's storage and advances that stream's receive sequence.
// Decryption is out of place: rec is never written, so a failed trial
// leaves it intact for the next candidate and a caller's read buffer is
// left as it was; the first candidate to match costs exactly one crypto
// pass. content aliases dst, which needs the capacity of rec's inner
// plaintext (a MaxRecordLen Buf fits any record). It returns
// ErrNoStreamMatch when no attached stream authenticates the record — a
// forgery, a desynchronized peer, or a record for a stream not attached
// to this connection.
func (m *Demux) Open(rec, dst []byte) (streamID uint32, contentType uint8, content []byte, err error) {
	n := len(m.contexts)
	for i := 0; i < n; i++ {
		idx := (m.last + i) % n
		c := m.contexts[idx]
		m.Probes++
		contentType, content, err = c.OpenInto(rec, dst)
		if err != nil {
			continue
		}
		m.last = idx
		return c.streamID, contentType, content, nil
	}
	return 0, 0, nil, ErrNoStreamMatch
}
