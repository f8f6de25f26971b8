package record

import (
	"bytes"
	"testing"

	"tcpls/internal/wire"
)

// FuzzDeframerAliasing drives the deframer's zero-copy view mode the way
// readLoop does: one reused read buffer, Feed on a prefix of it, drain
// every complete record, Compact, then overwrite the buffer with the
// next read. Records drained before Compact alias the read buffer, so
// any internalization bug (a view tail not copied, an offset carried
// across Feeds) shows up as reassembled records differing from the
// original stream — or as a panic on a short slice.
//
// The fuzz input is interpreted as a segmentation script: each byte is
// the length of the next "TCP read" (mod the remaining stream), which
// reproduces the paper's §2 observation that middleboxes resegment at
// will and the deframer must tolerate every split.
func FuzzDeframerAliasing(f *testing.F) {
	f.Add([]byte{5})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 255, 3, 7})
	f.Add(bytes.Repeat([]byte{13}, 40))

	// A fixed stream of plaintext-framed pseudo-records: outer header
	// with TLS AppData type plus a sized body the deframer treats as
	// ciphertext (it never decrypts; only framing matters here).
	var stream []byte
	var want [][]byte
	for i, size := range []int{0, 1, 80, 500, 19, 1200, 2, 333} {
		body := bytes.Repeat([]byte{byte(i + 1)}, size)
		rec := []byte{ContentTypeApplicationData, 0x03, 0x03}
		rec = wire.AppendUint16(rec, uint16(len(body)))
		rec = append(rec, body...)
		stream = append(stream, rec...)
		want = append(want, rec)
	}

	// A read boundary at every offset of the stream, so each record is
	// split at each of its bytes once: reads of 255 up to the offset, the
	// odd one that lands on it, then 255s again. The read after the split
	// completes that one record from the deframer's own buffer and views
	// the records behind it in place.
	for k := 1; k < len(stream); k++ {
		script := bytes.Repeat([]byte{255}, k/255)
		if k%255 != 0 {
			script = append(script, byte(k%255))
		}
		f.Add(append(script, bytes.Repeat([]byte{255}, len(stream)/255+1)...))
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		var d Deframer
		readBuf := make([]byte, 600) // smaller than the largest record: forces buffered-path splits
		var got [][]byte
		off := 0
		step := 0
		for off < len(stream) {
			n := 1
			if step < len(script) {
				n = int(script[step]) % len(readBuf)
				step++
			}
			if n == 0 {
				n = 1
			}
			if rem := len(stream) - off; n > rem {
				n = rem
			}
			// Simulate the kernel read into the reused buffer. Poison the
			// tail beyond the read so stale bytes from the previous
			// iteration cannot masquerade as valid data.
			copy(readBuf, stream[off:off+n])
			for i := n; i < len(readBuf); i++ {
				readBuf[i] = 0xee
			}
			off += n
			d.Feed(readBuf[:n])
			for {
				rec, ok, err := d.Next()
				if err != nil {
					t.Fatalf("Next: %v", err)
				}
				if !ok {
					break
				}
				// rec aliases readBuf until Compact — copy like a consumer
				// that retains the record past the next read.
				got = append(got, append([]byte(nil), rec...))
			}
			// The contract under test: Compact must internalize any view
			// tail before the caller reuses its read buffer.
			d.Compact()
		}
		if len(got) != len(want) {
			t.Fatalf("reassembled %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d corrupted by buffer reuse:\n got  %x\n want %x", i, got[i], want[i])
			}
		}
		if d.Buffered() != 0 {
			t.Fatalf("%d stray bytes buffered after full stream", d.Buffered())
		}
	})
}
