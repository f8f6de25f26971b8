package record

import (
	"bytes"
	"fmt"
	"testing"
)

// demuxPair builds a sender-side set of contexts and a receiver Demux
// with matching contexts for the given stream IDs.
func demuxPair(t testing.TB, streamIDs ...uint32) (map[uint32]*StreamContext, *Demux) {
	t.Helper()
	senders := make(map[uint32]*StreamContext, len(streamIDs))
	demux := &Demux{}
	for _, id := range streamIDs {
		senders[id] = newTestContext(t, id)
		demux.Attach(newTestContext(t, id))
	}
	return senders, demux
}

// open runs demux.Open into a fresh MaxRecordLen buffer.
func open(demux *Demux, rec []byte) (uint32, uint8, []byte, error) {
	return demux.Open(rec, make([]byte, MaxRecordLen))
}

func TestDemuxSingleStream(t *testing.T) {
	senders, demux := demuxPair(t, 0)
	rec, _ := senders[0].Seal(nil, ContentTypeApplicationData, []byte("solo"), 0)
	id, _, content, err := open(demux, rec)
	if err != nil || id != 0 || string(content) != "solo" {
		t.Fatalf("id=%d content=%q err=%v", id, content, err)
	}
}

func TestDemuxInterleavedStreams(t *testing.T) {
	senders, demux := demuxPair(t, 1, 2, 3)
	schedule := []uint32{1, 1, 2, 3, 3, 3, 1, 2, 2, 1}
	for i, sid := range schedule {
		msg := []byte(fmt.Sprintf("stream %d msg %d", sid, i))
		rec, err := senders[sid].Seal(nil, ContentTypeApplicationData, msg, 0)
		if err != nil {
			t.Fatal(err)
		}
		id, _, content, err := open(demux, rec)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if id != sid {
			t.Fatalf("msg %d: demuxed to stream %d, want %d", i, id, sid)
		}
		if !bytes.Equal(content, msg) {
			t.Fatalf("msg %d: content %q", i, content)
		}
	}
}

func TestDemuxLastSuccessfulFirst(t *testing.T) {
	senders, demux := demuxPair(t, 1, 2, 3, 4)
	// Warm up on stream 3.
	rec, _ := senders[3].Seal(nil, ContentTypeApplicationData, []byte("warm"), 0)
	if _, _, _, err := open(demux, rec); err != nil {
		t.Fatal(err)
	}
	before := demux.Probes
	// 50 more records on stream 3 must each cost exactly one probe.
	for i := 0; i < 50; i++ {
		rec, _ := senders[3].Seal(nil, ContentTypeApplicationData, []byte("hot path"), 0)
		if _, _, _, err := open(demux, rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := demux.Probes - before; got != 50 {
		t.Errorf("hot path used %d probes for 50 records, want 50", got)
	}
}

func TestDemuxUnknownStreamRejected(t *testing.T) {
	_, demux := demuxPair(t, 1, 2)
	outsider := newTestContext(t, 99)
	rec, _ := outsider.Seal(nil, ContentTypeApplicationData, []byte("intruder"), 0)
	if _, _, _, err := open(demux, rec); err != ErrNoStreamMatch {
		t.Fatalf("err=%v, want ErrNoStreamMatch", err)
	}
}

func TestDemuxForgeryRejected(t *testing.T) {
	senders, demux := demuxPair(t, 1, 2)
	rec, _ := senders[1].Seal(nil, ContentTypeApplicationData, []byte("genuine"), 0)
	forged := append([]byte(nil), rec...)
	forged[len(forged)-1] ^= 0xff
	if _, _, _, err := open(demux, forged); err != ErrNoStreamMatch {
		t.Fatalf("forged record: err=%v, want ErrNoStreamMatch", err)
	}
	// The genuine record must still open: failed trials consumed no
	// sequence numbers and did not corrupt state.
	if _, _, content, err := open(demux, rec); err != nil || string(content) != "genuine" {
		t.Fatalf("genuine record after forgery: content=%q err=%v", content, err)
	}
}

func TestDemuxFailedFastPathDoesNotCorruptRecord(t *testing.T) {
	// Force the fast path (last-successful stream) to fail, then require
	// the slow path to still authenticate the record: no trial, failed or
	// not, may write into the record.
	senders, demux := demuxPair(t, 1, 2)
	// Warm up stream 1 so it is the fast-path candidate.
	rec, _ := senders[1].Seal(nil, ContentTypeApplicationData, []byte("warm"), 0)
	if _, _, _, err := open(demux, rec); err != nil {
		t.Fatal(err)
	}
	// Now deliver a stream-2 record.
	rec2, _ := senders[2].Seal(nil, ContentTypeApplicationData, []byte("switch"), 0)
	pristine := bytes.Clone(rec2)
	id, _, content, err := open(demux, rec2)
	if err != nil || id != 2 || string(content) != "switch" {
		t.Fatalf("id=%d content=%q err=%v", id, content, err)
	}
	if !bytes.Equal(rec2, pristine) {
		t.Fatal("Open wrote into the record it decrypted")
	}
}

// TestMaxCiphertextDecryptsIntoBuf: a record of the largest ciphertext
// the deframer accepts decrypts into a pooled Buf's own storage — the
// AEAD never has to reallocate, so a receive queue can keep the Buf.
func TestMaxCiphertextDecryptsIntoBuf(t *testing.T) {
	send := newTestContext(t, 1)
	inner := make([]byte, MaxCiphertextLen-send.aead.Overhead())
	copy(inner, "content")
	inner[len("content")] = ContentTypeApplicationData // then zero padding
	hdr := header(MaxCiphertextLen)
	rec := send.aead.Seal(hdr[:], send.nonce(0), inner, hdr[:])
	if len(rec) != MaxRecordLen {
		t.Fatalf("built a %d-byte record, want %d", len(rec), MaxRecordLen)
	}
	demux := &Demux{}
	demux.Attach(newTestContext(t, 1))
	pool := NewBufferPool()
	b := pool.Get(MaxRecordLen)
	defer b.Release()
	if _, _, content, err := demux.Open(rec, b.Bytes()); err != nil || string(content) != "content" {
		t.Fatalf("content %q, err %v", content, err)
	} else if &content[0] != &b.Bytes()[0] {
		t.Fatal("the maximum-length record did not decrypt into its Buf")
	}
}

func TestDemuxDetach(t *testing.T) {
	senders, demux := demuxPair(t, 1, 2)
	demux.Detach(2)
	if demux.Streams() != 1 {
		t.Fatalf("Streams() = %d", demux.Streams())
	}
	rec, _ := senders[2].Seal(nil, ContentTypeApplicationData, []byte("gone"), 0)
	if _, _, _, err := open(demux, rec); err != ErrNoStreamMatch {
		t.Fatalf("detached stream still matched: %v", err)
	}
	if demux.Context(1) == nil || demux.Context(2) != nil {
		t.Error("Context lookup wrong after detach")
	}
	demux.Detach(42) // absent: must be a no-op
	if demux.Streams() != 1 {
		t.Error("Detach of absent stream changed state")
	}
}

func TestDemuxEmpty(t *testing.T) {
	demux := &Demux{}
	send := newTestContext(t, 0)
	rec, _ := send.Seal(nil, ContentTypeApplicationData, []byte("x"), 0)
	if _, _, _, err := open(demux, rec); err != ErrNoStreamMatch {
		t.Fatalf("err=%v", err)
	}
}

func TestDeframerPartialAndCoalesced(t *testing.T) {
	send := newTestContext(t, 0)
	var stream []byte
	var msgs [][]byte
	for i := 0; i < 5; i++ {
		msg := bytes.Repeat([]byte{byte('a' + i)}, 100*(i+1))
		msgs = append(msgs, msg)
		rec, _ := send.Seal(nil, ContentTypeApplicationData, msg, 0)
		stream = append(stream, rec...)
	}

	// Feed the byte stream in awkward chunk sizes (simulating TCP
	// segmentation and middlebox resegmentation).
	for _, chunk := range []int{1, 3, 7, 64, 1024} {
		recv := newTestContext(t, 0)
		var d Deframer
		var got [][]byte
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			d.Feed(stream[off:end])
			for {
				rec, ok, err := d.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				_, content, err := recv.Open(rec)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, append([]byte(nil), content...))
			}
		}
		if len(got) != len(msgs) {
			t.Fatalf("chunk %d: got %d records, want %d", chunk, len(got), len(msgs))
		}
		for i := range msgs {
			if !bytes.Equal(got[i], msgs[i]) {
				t.Fatalf("chunk %d: record %d mismatch", chunk, i)
			}
		}
	}
}

func TestDeframerOversizedRecord(t *testing.T) {
	var d Deframer
	hdr := []byte{23, 3, 3, 0xff, 0xff} // 65535 > MaxCiphertextLen
	d.Feed(hdr)
	if _, _, err := d.Next(); err != ErrRecordTooLarge {
		t.Fatalf("err=%v, want ErrRecordTooLarge", err)
	}
}

func TestDeframerBufferedAndReset(t *testing.T) {
	var d Deframer
	d.Feed([]byte{23, 3, 3})
	if d.Buffered() != 3 {
		t.Fatalf("Buffered = %d", d.Buffered())
	}
	if _, ok, _ := d.Next(); ok {
		t.Fatal("Next returned a record from a bare partial header")
	}
	d.Reset()
	if d.Buffered() != 0 {
		t.Fatal("Reset did not clear buffer")
	}
}

func BenchmarkTrialDecrypt(b *testing.B) {
	// X2: cost of implicit stream IDs. Measures records that switch
	// streams every time (worst case) across varying stream counts.
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("streams=%d/switch", n), func(b *testing.B) {
			ids := make([]uint32, n)
			for i := range ids {
				ids[i] = uint32(i + 1)
			}
			senders, demux := demuxPair(b, ids...)
			payload := make([]byte, 1400)
			recs := make([][]byte, b.N)
			for i := 0; i < b.N; i++ {
				sid := ids[i%n]
				recs[i], _ = senders[sid].Seal(nil, ContentTypeApplicationData, payload, 0)
			}
			dst := make([]byte, MaxRecordLen)
			b.ResetTimer()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, _, _, err := demux.Open(recs[i], dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRecordSeal16K(b *testing.B) {
	send := newTestContext(b, 0)
	payload := make([]byte, MaxPlaintextLen)
	dst := make([]byte, 0, MaxRecordLen)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = send.Seal(dst[:0], ContentTypeApplicationData, payload, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordOpen16K(b *testing.B) {
	send := newTestContext(b, 0)
	payload := make([]byte, MaxPlaintextLen)
	recs := make([][]byte, b.N)
	for i := 0; i < b.N; i++ {
		recs[i], _ = send.Seal(nil, ContentTypeApplicationData, payload, 0)
	}
	recv := newTestContext(b, 0)
	b.ResetTimer()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := recv.Open(recs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDeframerCompactAllowsBufferReuse(t *testing.T) {
	// Regression: the zero-copy view must survive the caller reusing
	// its read buffer, as long as Compact runs between feeds.
	send := newTestContext(t, 0)
	recv := newTestContext(t, 0)
	var d Deframer

	readBuf := make([]byte, 4096)
	var msgs [][]byte
	for i := 0; i < 8; i++ {
		msgs = append(msgs, bytes.Repeat([]byte{byte(i + 1)}, 300))
	}
	var wire []byte
	for _, m := range msgs {
		rec, _ := send.Seal(nil, ContentTypeApplicationData, m, 0)
		wire = append(wire, rec...)
	}

	var got [][]byte
	off := 0
	for off < len(wire) {
		// Simulate a socket read into the same reused buffer, cutting
		// records at awkward places.
		n := copy(readBuf, wire[off:])
		if n > 500 {
			n = 500
		}
		off += n
		d.Feed(readBuf[:n])
		for {
			rec, ok, err := d.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			_, content, err := recv.Open(rec)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, append([]byte(nil), content...))
		}
		d.Compact() // caller is about to overwrite readBuf
	}
	if len(got) != len(msgs) {
		t.Fatalf("got %d records, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestDeframerViewZeroCopy(t *testing.T) {
	// When a whole record arrives in one Feed, Next must return a slice
	// aliasing the fed buffer (no copy).
	send := newTestContext(t, 0)
	rec, _ := send.Seal(nil, ContentTypeApplicationData, []byte("zero copy"), 0)
	var d Deframer
	d.Feed(rec)
	got, ok, err := d.Next()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if &got[0] != &rec[0] {
		t.Error("Next copied despite the zero-copy fast path")
	}
}

func TestDeframerCompletesOneRecordOnly(t *testing.T) {
	// A read that starts inside a record: only the bytes that complete
	// that record may be copied; every later record in the read must be
	// returned as a view of the fed buffer. Tried at every split point
	// of the first record, header included.
	send := newTestContext(t, 0)
	var recs [][]byte
	var wire []byte
	for i := 0; i < 3; i++ {
		rec, _ := send.Seal(nil, ContentTypeApplicationData, bytes.Repeat([]byte{byte(i + 1)}, 100+i), 0)
		recs = append(recs, rec)
		wire = append(wire, rec...)
	}
	for split := 1; split < len(recs[0]); split++ {
		var d Deframer
		d.Feed(append([]byte(nil), wire[:split]...))
		if _, ok, err := d.Next(); ok || err != nil {
			t.Fatalf("split %d: partial record returned (ok %v, err %v)", split, ok, err)
		}
		d.Compact()
		rest := append([]byte(nil), wire[split:]...)
		d.Feed(rest)
		start := -split // where the next record begins within rest
		for i, want := range recs {
			got, ok, err := d.Next()
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("split %d: record %d: ok %v, err %v, equal %v", split, i, ok, err, bytes.Equal(got, want))
			}
			if i > 0 && &got[0] != &rest[start] {
				t.Fatalf("split %d: record %d was copied, not viewed in place", split, i)
			}
			start += len(want)
		}
		if d.Buffered() != 0 {
			t.Fatalf("split %d: %d stray bytes", split, d.Buffered())
		}
	}
}
