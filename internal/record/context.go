package record

import (
	"crypto/cipher"
	"errors"
	"fmt"
	"slices"

	"tcpls/internal/hkdf"
	"tcpls/internal/wire"
)

// Record layer size limits (RFC 8446 §5.1, §5.2). TCPLS keeps the TLS
// limits so records are indistinguishable from regular TLS 1.3 AppData.
const (
	HeaderLen        = 5     // opaque type + legacy version + length
	MaxPlaintextLen  = 16384 // 2^14 bytes of inner plaintext content
	maxExpansion     = 256   // RFC 8446 allowance for type byte + tag + padding
	MaxCiphertextLen = MaxPlaintextLen + maxExpansion
	MaxRecordLen     = HeaderLen + MaxCiphertextLen
)

// TLS content types that appear on the wire.
const (
	ContentTypeChangeCipherSpec = 20
	ContentTypeAlert            = 21
	ContentTypeHandshake        = 22
	ContentTypeApplicationData  = 23
)

// Errors returned by the record layer.
var (
	ErrDecrypt        = errors.New("record: AEAD authentication failed")
	ErrRecordTooLarge = errors.New("record: record exceeds maximum size")
	ErrBadContentType = errors.New("record: malformed inner content type")
	ErrNoStreamMatch  = errors.New("record: no stream context authenticates this record")
)

// StreamContext is the unidirectional cryptographic context of one TCPLS
// stream (paper §3.3.1). Each stream uses the connection's traffic key but
// an IV derived per Fig. 2, plus an independent record sequence space:
//
//	IV_stream[0:4]  = baseIV[0:4] + StreamID      (32-bit sum)
//	nonce[4:12]     = IV_stream[4:12] XOR seq     (per record)
//
// Stream 0 is by construction identical to the context TLS 1.3 itself
// would derive from the handshake, preserving the wire format.
type StreamContext struct {
	streamID uint32
	aead     cipher.AEAD
	iv       [12]byte // per-stream IV, stream ID already folded in
	seq      uint64   // next record sequence number in this direction
	// nonceBuf is the per-record nonce scratch. Computing the nonce into
	// a field of the (heap-resident) context instead of a local keeps
	// the slice handed to cipher.AEAD from forcing a per-record heap
	// allocation. Contexts are serialized by their owner, so one scratch
	// per context suffices.
	nonceBuf [12]byte
}

// NewStreamContext builds the context for streamID from the connection
// traffic key and base IV (both already derived from the traffic secret).
func NewStreamContext(suite *Suite, key, baseIV []byte, streamID uint32) (*StreamContext, error) {
	if len(baseIV) != suite.IVLen {
		return nil, fmt.Errorf("record: IV must be %d bytes, got %d", suite.IVLen, len(baseIV))
	}
	aead, err := suite.AEAD(key)
	if err != nil {
		return nil, err
	}
	c := &StreamContext{streamID: streamID, aead: aead}
	copy(c.iv[:], baseIV)
	// Fig. 2: sum the left-most 32 bits of the IV with the Stream ID.
	left := wire.Uint32(c.iv[:4]) + streamID
	wire.PutUint32(c.iv[:4], left)
	return c, nil
}

// DeriveTrafficKeys expands a traffic secret into the record-protection
// key and base IV per RFC 8446 §7.3.
func DeriveTrafficKeys(suite *Suite, trafficSecret []byte) (key, iv []byte) {
	e := hkdf.NewExpander(suite.NewHash, trafficSecret)
	return e.ExpandLabel("key", nil, suite.KeyLen), e.ExpandLabel("iv", nil, suite.IVLen)
}

// Seq returns the next record sequence number (i.e. the number of records
// processed so far in this direction).
func (c *StreamContext) Seq() uint64 { return c.seq }

// SetSeq resynchronizes the sequence number. Failover's SYNC record
// (paper Fig. 4) tells the receiver which sequence the next record on
// the new connection carries.
func (c *StreamContext) SetSeq(seq uint64) { c.seq = seq }

// Clone returns an independent context sharing the AEAD and stream IV
// but carrying its own sequence counter, started at seq. Failover
// re-homing attaches a clone to the new connection: records still in
// flight on the old connection keep authenticating against the old
// counter while the replay on the new connection proceeds from the
// SYNC's resume point. (cipher.AEAD is stateless, so sharing it across
// clones is safe.)
func (c *StreamContext) Clone(seq uint64) *StreamContext {
	cp := *c
	cp.seq = seq
	return &cp
}

// nonce computes the per-record nonce: the right-most 64 bits of the
// stream IV XORed with the record sequence number (Fig. 2). The result
// lives in the context's scratch field and is valid until the next
// nonce call on this context.
func (c *StreamContext) nonce(seq uint64) []byte {
	c.nonceBuf = c.iv
	right := wire.Uint64(c.nonceBuf[4:12]) ^ seq
	wire.PutUint64(c.nonceBuf[4:12], right)
	return c.nonceBuf[:]
}

// header builds the 5-byte TLS record header for a ciphertext of the
// given length; it doubles as the AEAD additional data.
func header(ctLen int) [HeaderLen]byte {
	return [HeaderLen]byte{
		ContentTypeApplicationData,
		0x03, 0x03, // legacy TLS 1.2 version, frozen by ossification
		byte(ctLen >> 8), byte(ctLen),
	}
}

// Seal encrypts one record carrying content with the given TLS inner
// content type, appends the full wire record (header + ciphertext) to dst
// and returns the extended slice. padTo, when larger than the content,
// pads the inner plaintext with zeros up to that length to hide the true
// content size. The context's sequence number advances by one.
func (c *StreamContext) Seal(dst []byte, contentType uint8, content []byte, padTo int) ([]byte, error) {
	return c.SealV(dst, contentType, padTo, content)
}

// SealV is Seal with scatter-gather content: the parts are concatenated
// directly into the output buffer, so callers composing payload plus a
// control trailer (the TCPLS framing of §3.1) avoid a staging copy.
func (c *StreamContext) SealV(dst []byte, contentType uint8, padTo int, parts ...[]byte) ([]byte, error) {
	contentLen := 0
	for _, p := range parts {
		contentLen += len(p)
	}
	padding := 0
	if padTo > contentLen {
		padding = padTo - contentLen
	}
	innerLen := contentLen + 1 + padding
	if innerLen > MaxPlaintextLen+1 {
		return nil, ErrRecordTooLarge
	}
	ctLen := innerLen + c.aead.Overhead()
	hdr := header(ctLen)

	// Assemble the inner plaintext directly in dst to avoid a staging
	// buffer. Grow dst up front so the in-place AEAD seal below finds
	// room for its tag without reallocating (which would discard the
	// in-place result).
	base := len(dst)
	total := HeaderLen + ctLen
	dst = slices.Grow(dst, total) // amortized, like append
	dst = append(dst, hdr[:]...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	dst = append(dst, contentType)
	for i := 0; i < padding; i++ {
		dst = append(dst, 0)
	}
	inner := dst[base+HeaderLen : base+HeaderLen+innerLen]

	nonce := c.nonce(c.seq)
	c.seq++
	// In-place seal: ciphertext overwrites the inner plaintext, the tag
	// lands in the pre-grown capacity.
	c.aead.Seal(inner[:0], nonce, inner, dst[base:base+HeaderLen])
	return dst[:base+total], nil
}

// SealSeq is Seal with an explicit sequence number and no state update:
// the record a failover replay (paper §3.3.2) resends under its original
// sequence number. The engine replays the sealed bytes it kept instead,
// which are these by construction.
func (c *StreamContext) SealSeq(dst []byte, seq uint64, contentType uint8, content []byte, padTo int) ([]byte, error) {
	saved := c.seq
	c.seq = seq
	out, err := c.Seal(dst, contentType, content, padTo)
	c.seq = saved
	return out, err
}

// Open authenticates and decrypts one full wire record (header included)
// using the context's current receive sequence number. The plaintext is
// decrypted in place inside rec's storage, so the returned content slice
// aliases rec. It returns the inner TLS content type and the content with
// type byte and padding stripped. On success the sequence number advances.
func (c *StreamContext) Open(rec []byte) (contentType uint8, content []byte, err error) {
	contentType, content, err = c.openAt(rec, c.seq)
	if err == nil {
		c.seq++
	}
	return contentType, content, err
}

// OpenInto is Open decrypting into dst's storage instead of in place: rec
// is left untouched, so a failed open cannot corrupt it for the other
// candidate streams of trial decryption. The returned content aliases
// dst, which needs the capacity of rec's inner plaintext.
func (c *StreamContext) OpenInto(rec, dst []byte) (contentType uint8, content []byte, err error) {
	ct, err := c.checkRecord(rec)
	if err != nil {
		return 0, nil, err
	}
	nonce := c.nonce(c.seq)
	inner, err := c.aead.Open(dst[:0], nonce, ct, rec[:HeaderLen])
	if err != nil {
		return 0, nil, ErrDecrypt
	}
	c.seq++
	return splitInner(inner)
}

func (c *StreamContext) openAt(rec []byte, seq uint64) (uint8, []byte, error) {
	ct, err := c.checkRecord(rec)
	if err != nil {
		return 0, nil, err
	}
	nonce := c.nonce(seq)
	inner, err := c.aead.Open(ct[:0], nonce, ct, rec[:HeaderLen])
	if err != nil {
		return 0, nil, ErrDecrypt
	}
	return splitInner(inner)
}

func (c *StreamContext) checkRecord(rec []byte) ([]byte, error) {
	if len(rec) < HeaderLen+c.aead.Overhead() {
		return nil, ErrDecrypt
	}
	ctLen := int(wire.Uint16(rec[3:5]))
	if ctLen > MaxCiphertextLen {
		return nil, ErrRecordTooLarge
	}
	if len(rec) != HeaderLen+ctLen {
		return nil, ErrDecrypt
	}
	return rec[HeaderLen:], nil
}

// splitInner strips zero padding and extracts the inner content type from
// a decrypted TLSInnerPlaintext.
func splitInner(inner []byte) (uint8, []byte, error) {
	i := len(inner) - 1
	for i >= 0 && inner[i] == 0 {
		i--
	}
	if i < 0 {
		return 0, nil, ErrBadContentType
	}
	return inner[i], inner[:i:i], nil
}
