package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrips(t *testing.T) {
	cases := []struct {
		name  string
		build func() []byte
		check func(t *testing.T, f *frame)
	}{
		{"stream-data", func() []byte { return appendStreamData(nil, []byte("payload")) },
			func(t *testing.T, f *frame) {
				if f.typ != typeStreamData || string(f.payload) != "payload" {
					t.Fatalf("%+v", f)
				}
			}},
		{"coupled", func() []byte { return appendStreamDataCoupled(nil, []byte("agg"), 42) },
			func(t *testing.T, f *frame) {
				if f.typ != typeStreamDataCoupled || f.aggSeq != 42 || string(f.payload) != "agg" {
					t.Fatalf("%+v", f)
				}
			}},
		{"ack", func() []byte { return appendAck(nil, 7, 1234) },
			func(t *testing.T, f *frame) {
				if f.typ != typeAck || f.id != 7 || f.seq != 1234 {
					t.Fatalf("%+v", f)
				}
			}},
		{"sync", func() []byte { return appendSync(nil, 9, 55) },
			func(t *testing.T, f *frame) {
				if f.typ != typeSync || f.id != 9 || f.seq != 55 {
					t.Fatalf("%+v", f)
				}
			}},
		{"failover", func() []byte { return appendFailover(nil, 3) },
			func(t *testing.T, f *frame) {
				if f.typ != typeFailover || f.id != 3 {
					t.Fatalf("%+v", f)
				}
			}},
		{"attach", func() []byte { return appendStreamAttach(nil, 8) },
			func(t *testing.T, f *frame) {
				if f.typ != typeStreamAttach || f.id != 8 {
					t.Fatalf("%+v", f)
				}
			}},
		{"fin", func() []byte { return appendStreamFin(nil, 6, 99) },
			func(t *testing.T, f *frame) {
				if f.typ != typeStreamFin || f.id != 6 || f.seq != 99 {
					t.Fatalf("%+v", f)
				}
			}},
		{"tcp-option", func() []byte { return appendTCPOption(nil, OptUserTimeout, []byte{0, 250}) },
			func(t *testing.T, f *frame) {
				if f.typ != typeTCPOption || f.optKind != OptUserTimeout || !bytes.Equal(f.optVal, []byte{0, 250}) {
					t.Fatalf("%+v", f)
				}
			}},
		{"add-addr-v4", func() []byte { return appendAddr(nil, typeAddAddr, []byte{10, 0, 0, 1}) },
			func(t *testing.T, f *frame) {
				if f.typ != typeAddAddr || !bytes.Equal(f.addr, []byte{10, 0, 0, 1}) {
					t.Fatalf("%+v", f)
				}
			}},
		{"add-addr-v6", func() []byte { return appendAddr(nil, typeAddAddr, bytes.Repeat([]byte{1}, 16)) },
			func(t *testing.T, f *frame) {
				if f.typ != typeAddAddr || len(f.addr) != 16 {
					t.Fatalf("%+v", f)
				}
			}},
		{"cookies", func() []byte { return appendNewCookie(nil, [][16]byte{{1}, {2}, {3}}) },
			func(t *testing.T, f *frame) {
				if f.typ != typeNewCookie || len(f.cookies) != 3 || f.cookies[1][0] != 2 {
					t.Fatalf("%+v", f)
				}
			}},
		{"bpf", func() []byte { return appendBPFCC(nil, []byte{0xbf, 0x01}, 2, 5, 1000) },
			func(t *testing.T, f *frame) {
				if f.typ != typeBPFCC || f.chunkIdx != 2 || f.chunkCount != 5 || f.progLen != 1000 || len(f.chunk) != 2 {
					t.Fatalf("%+v", f)
				}
			}},
		{"echo-req", func() []byte { return appendEcho(nil, typeEchoRequest, 777) },
			func(t *testing.T, f *frame) {
				if f.typ != typeEchoRequest || f.token != 777 {
					t.Fatalf("%+v", f)
				}
			}},
		{"conn-close", func() []byte { return appendConnClose(nil) },
			func(t *testing.T, f *frame) {
				if f.typ != typeConnClose {
					t.Fatalf("%+v", f)
				}
			}},
		{"ticket", func() []byte {
			return appendSessionTicket(nil, [16]byte{9, 8, 7}, []byte("opaque"), 16384)
		},
			func(t *testing.T, f *frame) {
				if f.typ != typeSessionTicket || string(f.chunk) != "opaque" ||
					f.nonce[0] != 9 || f.maxEarly != 16384 {
					t.Fatalf("%+v", f)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f frame
			if err := parseFrame(&f, tc.build()); err != nil {
				t.Fatal(err)
			}
			tc.check(t, &f)
		})
	}
}

func TestMalformedFramesRejected(t *testing.T) {
	bad := [][]byte{
		nil,                                // empty
		{byte(typeAck)},                    // ack with no body
		{1, 2, 3, byte(typeSync)},          // short sync
		{byte(typeFailover)},               // short failover
		{1, 2, byte(typeTCPOption)},        // short option
		{5, byte(typeAddAddr)},             // addr length lies
		{1, 2, 3, 1, byte(typeAddAddr)},    // 3-byte address (invalid family)
		{3, byte(typeNewCookie)},           // cookie count lies
		{1, 2, 3, byte(typeBPFCC)},         // short bpf trailer
		{1, byte(typeConnClose)},           // close with body
		{1, 2, 3, byte(typeSessionTicket)}, // short ticket
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
			byte(typeSessionTicket)}, // nonce but no budget
		{0xee},             // unknown type
		{0, 0, 0, 8, 0x06}, // unassigned 0x06 with a well-formed stream ID
	}
	for i, b := range bad {
		if err := parseFrame(new(frame), b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("case %d: malformed frame %v: err %v, want ErrBadFrame", i, b, err)
		}
	}
}

func TestQuickFrameParserNeverPanics(t *testing.T) {
	// Any byte string must either parse or return an error — no panics,
	// no out-of-range slices (the record layer feeds parseFrame with
	// authenticated but arbitrary content).
	f := func(content []byte) bool {
		_ = parseFrame(new(frame), content)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoupledRoundTrip(t *testing.T) {
	f := func(payload []byte, aggSeq uint64) bool {
		var fr frame
		err := parseFrame(&fr, appendStreamDataCoupled(nil, payload, aggSeq))
		return err == nil && fr.aggSeq == aggSeq && bytes.Equal(fr.payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTCPOptionRoundTrip(t *testing.T) {
	f := func(kind uint8, value []byte) bool {
		if len(value) > 60000 {
			value = value[:60000]
		}
		var fr frame
		err := parseFrame(&fr, appendTCPOption(nil, kind, value))
		return err == nil && fr.optKind == kind && bytes.Equal(fr.optVal, value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
