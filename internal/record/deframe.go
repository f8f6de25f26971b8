package record

// Deframer incrementally reassembles TLS records from a TCP byte stream.
// TCP does not respect record boundaries: a read may deliver half a
// record or several records back to back (and middleboxes resegment at
// will, Sec. 2 of the paper), so the deframer buffers bytes until a full
// record is available.
//
// The deframer is sans-IO: callers Feed it bytes from wherever they came
// from (a socket, a simulator, a test) and pull complete records with
// Next. Records returned by Next alias the internal buffer and remain
// valid until the next call to Feed.
type Deframer struct {
	// buf holds bytes the deframer had to keep for itself: the partial
	// record a read ended on, completed from the next Feed. off is the
	// start of unparsed data within it.
	buf []byte
	off int
	// view is the unparsed rest of the caller's last Feed slice,
	// referenced in place; records wholly inside one read are never
	// copied. Compact moves what is left of it into buf.
	view []byte
}

// recordLen returns the full wire length (header included) announced by
// the record starting at b, or 0 when b is too short to hold a header.
func recordLen(b []byte) int {
	if len(b) < HeaderLen {
		return 0
	}
	return HeaderLen + (int(b[3])<<8 | int(b[4]))
}

// missing reports how many more bytes the partial record at the end of
// b needs before Next can make progress on it: enough for its header
// first, then for the length the header announces; 0 when b ends on a
// record boundary.
func missing(b []byte) int {
	for len(b) > 0 {
		total := recordLen(b)
		if total == 0 {
			return HeaderLen - len(b)
		}
		if len(b) < total {
			return total - len(b)
		}
		b = b[total:]
	}
	return 0
}

// Feed hands the deframer raw bytes received from the transport. Only
// the bytes that complete a buffered partial record are copied; the
// rest of p is referenced in place, so records returned by Next may
// alias p and remain valid until the next Feed.
func (d *Deframer) Feed(p []byte) {
	d.Compact()
	for len(p) > 0 {
		n := min(missing(d.buf[d.off:]), len(p))
		if n == 0 {
			break
		}
		d.buf = append(d.buf, p[:n]...)
		p = p[n:]
	}
	d.view = p
}

// Next returns the next complete record (header plus ciphertext), or
// ok=false when more bytes are needed. It returns ErrRecordTooLarge for a
// header announcing an impossible length, which on a real connection is
// fatal (the stream can never resynchronize).
func (d *Deframer) Next() (rec []byte, ok bool, err error) {
	avail, buffered := d.buf[d.off:], true
	if len(avail) == 0 {
		avail, buffered = d.view, false
	}
	total := recordLen(avail)
	if total > HeaderLen+MaxCiphertextLen {
		return nil, false, ErrRecordTooLarge
	}
	if total == 0 || len(avail) < total {
		return nil, false, nil
	}
	if !buffered {
		d.view = avail[total:]
	} else if d.off += total; d.off == len(d.buf) {
		d.buf, d.off = d.buf[:0], 0
	}
	return avail[:total:total], true, nil
}

// Compact internalizes any zero-copy view tail into the deframer's own
// buffer. Callers that reuse their read buffer MUST call Compact after
// draining records and before the next read: records and the view are
// only valid until then.
func (d *Deframer) Compact() {
	if d.off > 0 {
		d.buf = d.buf[:copy(d.buf, d.buf[d.off:])]
		d.off = 0
	}
	d.buf = append(d.buf, d.view...)
	d.view = nil
}

// Buffered returns the number of bytes waiting to be parsed.
func (d *Deframer) Buffered() int { return len(d.buf) - d.off + len(d.view) }

// Drain consumes and returns all unparsed bytes, including any partial
// record tail. Session setup uses this to hand coalesced post-handshake
// bytes from the handshake transport to the application record loop.
func (d *Deframer) Drain() []byte {
	out := append(append([]byte(nil), d.buf[d.off:]...), d.view...)
	d.Reset()
	return out
}

// Reset discards all buffered data.
func (d *Deframer) Reset() {
	d.buf, d.off, d.view = d.buf[:0], 0, nil
}
