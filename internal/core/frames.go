// Package core implements the sans-IO TCPLS session engine: the protocol
// machine of the paper's §3.3 and §4 — stream multiplexing over per-stream
// cryptographic contexts, record-level acknowledgments, failover with SYNC
// resynchronization, application-triggered connection migration, coupled
// streams with receiver-side reordering, encrypted TCP options, and eBPF
// congestion-controller exchange.
//
// The engine performs no I/O and reads no clocks: callers feed it received
// bytes (Session.Receive), drain bytes to transmit (Session.Outgoing),
// and drive time explicitly (Session.Advance). This lets the same engine
// run over real TCP connections (package tcpls), the discrete-event
// simulator (internal/sim), and deterministic tests.
package core

import (
	"errors"
	"fmt"

	"tcpls/internal/wire"
)

// recordType identifies the TCPLS meaning of a record. Per the paper's
// zero-copy design (§3.1), all TCPLS framing lives at the *end* of the
// TLS inner plaintext: [payload][trailer fields][recordType], so a
// receiver just truncates the control trailer off the decrypted record.
// On the wire every record still carries TLS content type 23.
type recordType uint8

const (
	// typeStreamData: [payload][type]. Plain stream bytes.
	typeStreamData recordType = 0x00
	// typeStreamDataCoupled: [payload][aggSeq:8][type]. Stream bytes
	// carrying an aggregation sequence number for coupled streams.
	typeStreamDataCoupled recordType = 0x01
	// typeAck: [streamID:4][nextSeq:8][type]. Cumulative: all records of
	// streamID below nextSeq have been received (Fig. 4).
	typeAck recordType = 0x02
	// typeSync: [streamID:4][resumeSeq:8][type]. Failover resync: the
	// next record of streamID on this connection carries sequence
	// resumeSeq (Fig. 4's SYNC).
	typeSync recordType = 0x03
	// typeFailover: [connID:4][type]. Explicit notification that connID
	// failed and its streams move to the connection this arrived on.
	typeFailover recordType = 0x04
	// typeStreamAttach: [streamID:4][type]. The sender will transmit
	// records of streamID on this connection; the receiver attaches the
	// stream's context to this connection's demux.
	typeStreamAttach recordType = 0x05
	// 0x06 is unassigned: the parser rejects it as an unknown type.
	// typeStreamFin: [streamID:4][finalSeq:8][type]. Graceful stream end
	// after finalSeq records.
	typeStreamFin recordType = 0x07
	// typeTCPOption: [value...][kind:1][len:2][type]. An encrypted TCP
	// option (paper §3.1, §4.2), reliably delivered.
	typeTCPOption recordType = 0x08
	// typeAddAddr / typeRemoveAddr: [addr...][len:1][type].
	typeAddAddr    recordType = 0x09
	typeRemoveAddr recordType = 0x0a
	// typeNewCookie: [cookies...][count:1][type]. Server replenishes the
	// client's join-cookie budget.
	typeNewCookie recordType = 0x0b
	// typeBPFCC: [bytecode chunk][chunkIdx:2][chunkCount:2][progLen:4]
	// [type]. Ships an eBPF congestion controller (§4.4).
	typeBPFCC recordType = 0x0c
	// typeEchoRequest / typeEchoReply: [token:8][type]. Application-
	// driven path probing (§3.3.3).
	typeEchoRequest recordType = 0x0d
	typeEchoReply   recordType = 0x0e
	// typeConnClose: [type]. Orderly session-level close of this
	// connection (distinct from stream FIN).
	typeConnClose recordType = 0x0f
	// typeSessionTicket: [ticket...][nonce:16][maxEarly:4][type]. A resumption
	// ticket (§4.5): the client derives the PSK from the session's
	// resumption secret and the nonce; the opaque ticket lets the
	// server recover the same PSK statelessly on a later connection.
	// maxEarly advertises the issuer's 0-RTT budget in plaintext bytes
	// (TLS 1.3's max_early_data_size): the client clamps its early-data
	// offer to it; 0 means no 0-RTT with this ticket.
	typeSessionTicket recordType = 0x10
	// typeAckRequest: [streamID:4][type]. Solicits an immediate
	// cumulative ACK for streamID: a sender whose send window fills
	// re-requests acknowledgment instead of waiting out the peer's ack
	// policy (lost-ACK recovery on the ctl path).
	typeAckRequest recordType = 0x11
)

// ErrBadFrame is returned for TCPLS records whose trailer is malformed.
var ErrBadFrame = errors.New("core: malformed TCPLS record trailer")

// TCP option kinds carried in typeTCPOption records.
const (
	// OptUserTimeout carries the TCP User Timeout (RFC 5482) in
	// milliseconds; it drives failover detection (§4.2).
	OptUserTimeout uint8 = 28
)

// appendStreamData builds the content of a stream data record.
func appendStreamData(dst, payload []byte) []byte {
	dst = append(dst, payload...)
	return append(dst, byte(typeStreamData))
}

// appendStreamDataCoupled builds a coupled-stream data record: the
// aggregation sequence number sits after the payload so zero-copy
// delivery just truncates it.
func appendStreamDataCoupled(dst, payload []byte, aggSeq uint64) []byte {
	dst = append(dst, payload...)
	dst = wire.AppendUint64(dst, aggSeq)
	return append(dst, byte(typeStreamDataCoupled))
}

func appendAck(dst []byte, streamID uint32, nextSeq uint64) []byte {
	dst = wire.AppendUint32(dst, streamID)
	dst = wire.AppendUint64(dst, nextSeq)
	return append(dst, byte(typeAck))
}

func appendSync(dst []byte, streamID uint32, resumeSeq uint64) []byte {
	dst = wire.AppendUint32(dst, streamID)
	dst = wire.AppendUint64(dst, resumeSeq)
	return append(dst, byte(typeSync))
}

func appendFailover(dst []byte, connID uint32) []byte {
	dst = wire.AppendUint32(dst, connID)
	return append(dst, byte(typeFailover))
}

func appendStreamAttach(dst []byte, streamID uint32) []byte {
	dst = wire.AppendUint32(dst, streamID)
	return append(dst, byte(typeStreamAttach))
}

func appendStreamFin(dst []byte, streamID uint32, finalSeq uint64) []byte {
	dst = wire.AppendUint32(dst, streamID)
	dst = wire.AppendUint64(dst, finalSeq)
	return append(dst, byte(typeStreamFin))
}

func appendAckRequest(dst []byte, streamID uint32) []byte {
	dst = wire.AppendUint32(dst, streamID)
	return append(dst, byte(typeAckRequest))
}

func appendTCPOption(dst []byte, kind uint8, value []byte) []byte {
	dst = append(dst, value...)
	dst = append(dst, kind)
	dst = wire.AppendUint16(dst, uint16(len(value)))
	return append(dst, byte(typeTCPOption))
}

func appendAddr(dst []byte, typ recordType, addr []byte) []byte {
	dst = append(dst, addr...)
	dst = append(dst, byte(len(addr)))
	return append(dst, byte(typ))
}

func appendNewCookie(dst []byte, cookies [][16]byte) []byte {
	for _, c := range cookies {
		dst = append(dst, c[:]...)
	}
	dst = append(dst, byte(len(cookies)))
	return append(dst, byte(typeNewCookie))
}

func appendBPFCC(dst, chunk []byte, chunkIdx, chunkCount uint16, progLen uint32) []byte {
	dst = append(dst, chunk...)
	dst = wire.AppendUint16(dst, chunkIdx)
	dst = wire.AppendUint16(dst, chunkCount)
	dst = wire.AppendUint32(dst, progLen)
	return append(dst, byte(typeBPFCC))
}

func appendEcho(dst []byte, typ recordType, token uint64) []byte {
	dst = wire.AppendUint64(dst, token)
	return append(dst, byte(typ))
}

func appendConnClose(dst []byte) []byte {
	return append(dst, byte(typeConnClose))
}

func appendSessionTicket(dst []byte, nonce [16]byte, ticket []byte, maxEarly uint32) []byte {
	dst = append(dst, ticket...)
	dst = append(dst, nonce[:]...)
	dst = wire.AppendUint32(dst, maxEarly)
	return append(dst, byte(typeSessionTicket))
}

// frame is one parsed TCPLS record.
type frame struct {
	typ                  recordType
	payload              []byte // stream data (aliases the decrypted record)
	aggSeq               uint64 // coupled data
	id                   uint32 // stream or connection ID
	seq                  uint64 // ack / sync / fin sequence
	optKind              uint8
	optVal               []byte
	addr                 []byte
	cookies              [][16]byte
	chunk                []byte // bpf bytecode chunk
	chunkIdx, chunkCount uint16
	progLen              uint32
	token                uint64
	nonce                [16]byte
	maxEarly             uint32
}

// parseFrame decodes the trailer of a decrypted TCPLS record into f
// (a reused scratch — the receive path parses one record per struct
// lifetime, so no per-record allocation). content is the TLS inner
// plaintext minus the TLS content type byte and padding.
func parseFrame(f *frame, content []byte) error {
	if len(content) == 0 {
		return ErrBadFrame
	}
	*f = frame{typ: recordType(content[len(content)-1])}
	body := content[:len(content)-1]
	switch f.typ {
	case typeStreamData:
		f.payload = body
	case typeStreamDataCoupled:
		if len(body) < 8 {
			return ErrBadFrame
		}
		f.aggSeq = wire.Uint64(body[len(body)-8:])
		f.payload = body[: len(body)-8 : len(body)-8]
	case typeAck, typeSync, typeStreamFin:
		if len(body) != 12 {
			return ErrBadFrame
		}
		f.id = wire.Uint32(body[:4])
		f.seq = wire.Uint64(body[4:])
	case typeFailover, typeStreamAttach, typeAckRequest:
		if len(body) != 4 {
			return ErrBadFrame
		}
		f.id = wire.Uint32(body)
	case typeTCPOption:
		if len(body) < 3 {
			return ErrBadFrame
		}
		vlen := int(wire.Uint16(body[len(body)-2:]))
		f.optKind = body[len(body)-3]
		if len(body) != vlen+3 {
			return ErrBadFrame
		}
		f.optVal = body[:vlen:vlen]
	case typeAddAddr, typeRemoveAddr:
		if len(body) < 1 {
			return ErrBadFrame
		}
		alen := int(body[len(body)-1])
		if len(body) != alen+1 || (alen != 4 && alen != 16) {
			return ErrBadFrame
		}
		f.addr = body[:alen:alen]
	case typeNewCookie:
		if len(body) < 1 {
			return ErrBadFrame
		}
		count := int(body[len(body)-1])
		if len(body) != count*16+1 {
			return ErrBadFrame
		}
		for i := 0; i < count; i++ {
			var c [16]byte
			copy(c[:], body[i*16:])
			f.cookies = append(f.cookies, c)
		}
	case typeBPFCC:
		if len(body) < 8 {
			return ErrBadFrame
		}
		tail := body[len(body)-8:]
		f.chunkIdx = wire.Uint16(tail[0:2])
		f.chunkCount = wire.Uint16(tail[2:4])
		f.progLen = wire.Uint32(tail[4:8])
		f.chunk = body[: len(body)-8 : len(body)-8]
	case typeEchoRequest, typeEchoReply:
		if len(body) != 8 {
			return ErrBadFrame
		}
		f.token = wire.Uint64(body)
	case typeConnClose:
		if len(body) != 0 {
			return ErrBadFrame
		}
	case typeSessionTicket:
		if len(body) < 20 {
			return ErrBadFrame
		}
		f.maxEarly = wire.Uint32(body[len(body)-4:])
		copy(f.nonce[:], body[len(body)-20:len(body)-4])
		f.chunk = body[: len(body)-20 : len(body)-20]
	default:
		return fmt.Errorf("core: unknown TCPLS record type %#x: %w", uint8(f.typ), ErrBadFrame)
	}
	return nil
}
