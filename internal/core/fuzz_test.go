package core

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseFrame drives the record-trailer parser with arbitrary
// decrypted-record contents. parseFrame sits directly behind record
// decryption, so every byte a peer can get past the AEAD reaches it;
// it must never panic, and every frame it accepts must re-encode
// byte-exactly through the appendX builders (the round-trip oracle
// that catches silent field truncation as well as crashes).
func FuzzParseFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(appendStreamData(nil, []byte("hello")))
	f.Add(appendStreamDataCoupled(nil, []byte("agg"), 1<<40))
	f.Add(appendAck(nil, 7, 1<<33))
	f.Add(appendSync(nil, 9, 3))
	f.Add(appendFailover(nil, 2))
	f.Add(appendStreamAttach(nil, 4))
	f.Add([]byte{0, 0, 0, 5, 0x06}) // unassigned type: must be ErrBadFrame
	f.Add(appendStreamFin(nil, 6, 10))
	f.Add(appendAckRequest(nil, 8))
	f.Add(appendTCPOption(nil, OptUserTimeout, []byte{0x01, 0x02}))
	f.Add(appendAddr(nil, typeAddAddr, []byte{127, 0, 0, 1}))
	f.Add(appendAddr(nil, typeRemoveAddr, bytes.Repeat([]byte{0xfe}, 16)))
	f.Add(appendNewCookie(nil, [][16]byte{{1}, {2}}))
	f.Add(appendBPFCC(nil, []byte{0xb7, 0x00, 0x00, 0x00}, 0, 2, 8))
	f.Add(appendEcho(nil, typeEchoRequest, 5))
	f.Add(appendEcho(nil, typeEchoReply, 6))
	f.Add(appendConnClose(nil))
	f.Add(appendSessionTicket(nil, [16]byte{9, 9, 9}, []byte("ticket"), 16384))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frame
		if err := parseFrame(&fr, data); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("parseFrame error not ErrBadFrame: %v", err)
			}
			return
		}
		var re []byte
		switch fr.typ {
		case typeStreamData:
			re = appendStreamData(nil, fr.payload)
		case typeStreamDataCoupled:
			re = appendStreamDataCoupled(nil, fr.payload, fr.aggSeq)
		case typeAck:
			re = appendAck(nil, fr.id, fr.seq)
		case typeSync:
			re = appendSync(nil, fr.id, fr.seq)
		case typeStreamFin:
			re = appendStreamFin(nil, fr.id, fr.seq)
		case typeFailover:
			re = appendFailover(nil, fr.id)
		case typeStreamAttach:
			re = appendStreamAttach(nil, fr.id)
		case typeAckRequest:
			re = appendAckRequest(nil, fr.id)
		case typeTCPOption:
			re = appendTCPOption(nil, fr.optKind, fr.optVal)
		case typeAddAddr, typeRemoveAddr:
			re = appendAddr(nil, fr.typ, fr.addr)
		case typeNewCookie:
			re = appendNewCookie(nil, fr.cookies)
		case typeBPFCC:
			re = appendBPFCC(nil, fr.chunk, fr.chunkIdx, fr.chunkCount, fr.progLen)
		case typeEchoRequest, typeEchoReply:
			re = appendEcho(nil, fr.typ, fr.token)
		case typeConnClose:
			re = appendConnClose(nil)
		case typeSessionTicket:
			re = appendSessionTicket(nil, fr.nonce, fr.chunk, fr.maxEarly)
		default:
			t.Fatalf("parseFrame accepted unknown type %#x", uint8(fr.typ))
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch for type %#x:\n in:  %x\n out: %x", uint8(fr.typ), data, re)
		}
	})
}
