package core

import (
	"bytes"
	"testing"

	"tcpls/internal/record"
)

// TestReplayIsByteIdenticalToSealSeq is the replay's ciphertext oracle:
// after a forced failover, every replayed record equals SealSeq of its
// payload at its sequence number, whichever home it was replayed from —
// a full chunk that pinned it, a Buf a sparse chunk moved it into, or
// the chunk still being filled.
func TestReplayIsByteIdenticalToSealSeq(t *testing.T) {
	for _, coupled := range []bool{false, true} {
		name := "plain"
		if coupled {
			name = "coupled"
		}
		t.Run(name, func(t *testing.T) {
			p := newPair(t, Config{EnableFailover: true})
			p.addConn(1)
			sid, _ := p.client.CreateStream(0)
			p.client.SetCoupled(sid, coupled)
			p.pump()
			max := p.client.cfg.maxPayload()
			var sent []byte
			write := func(n int) {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(len(sent) + i*7)
				}
				sent = append(sent, data...)
				var err error
				if coupled {
					_, err = p.client.WriteCoupled(data)
				} else {
					_, err = p.client.Write(sid, data)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := p.client.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			// 20 whole records and a tail: the first output chunk fills up
			// and stays pinned when recycled, the second is sparse and
			// moves its records into Bufs; 3 more stay in the chunk being
			// filled. None reaches the server.
			write(20*max + 100)
			for out, _ := p.client.NextChunk(0); out != nil; out, _ = p.client.NextChunk(0) {
				p.client.RecycleOutgoing(out)
			}
			write(3 * max)

			st := p.client.streams[sid]
			var homes [3]int // pinned chunk, Buf, open chunk
			for _, r := range st.retransmit {
				switch {
				case r.moved != nil:
					homes[1]++
				case r.in.pin == 0:
					homes[2]++
				default:
					homes[0]++
				}
			}
			if homes[0] == 0 || homes[1] == 0 || homes[2] == 0 {
				t.Fatalf("records retained in pinned chunks / Bufs / the open chunk: %v, want some of each", homes)
			}
			seal, err := p.client.newContext(p.client.send, sid)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			off := 0
			for i, r := range st.retransmit {
				payload := sent[off : off+r.size]
				off += r.size
				content := appendStreamData(nil, payload)
				if coupled {
					content = appendStreamDataCoupled(nil, payload, uint64(i))
				}
				rec, err := seal.SealSeq(nil, r.seq, record.ContentTypeApplicationData, content, 0)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, rec)
			}
			if off != len(sent) {
				t.Fatalf("retained records carry %d payload bytes, %d were written", off, len(sent))
			}

			before := p.client.Stats().Retransmits
			if err := p.client.FailoverTo(0, 1); err != nil {
				t.Fatal(err)
			}
			out, err := p.client.Outgoing(1)
			if err != nil {
				t.Fatal(err)
			}
			var d record.Deframer
			d.Feed(out)
			k := 0
			for {
				rec, ok, err := d.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if k < len(want) && bytes.Equal(rec, want[k]) {
					k++
				}
			}
			if k != len(want) || p.client.Stats().Retransmits-before != uint64(len(want)) {
				t.Fatalf("%d of %d replayed records match SealSeq (%d retransmits)",
					k, len(want), p.client.Stats().Retransmits-before)
			}
		})
	}
}

// TestHostileAckPinsAtMostTwiceRetained: two streams share a connection
// with failover on and the peer acknowledges only one of them. Every
// output chunk carries 15 records of the acknowledged stream and one of
// the other, so without the sparse-chunk rule each withheld record would
// pin a whole chunk. Pool truth — Bufs held plus chunks pinned, at their
// full sizes — must stay within twice the record bytes retained, plus
// the chunks in the writer's hands and the one chunk per connection the
// rule allows.
func TestHostileAckPinsAtMostTwiceRetained(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true})
	// The peer: an engine with failover off never acknowledges on its
	// own; the test acknowledges stream a for it.
	p.server = NewSession(RoleServer, testSecrets(t), Config{})
	if err := p.server.AddConnection(0, p.now); err != nil {
		t.Fatal(err)
	}
	p.server.DeliverData = func(uint32, []byte) {}
	a, _ := p.client.CreateStream(0)
	b, _ := p.client.CreateStream(0)
	p.pump()
	rec := p.client.cfg.maxPayload()
	var truth, retained int
	for round := 1; round <= 40; round++ {
		if _, err := p.client.Write(a, make([]byte, 15*rec)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.client.Write(b, make([]byte, rec)); err != nil {
			t.Fatal(err)
		}
		p.pump()
		p.server.sendAck(p.server.conns[0], p.server.streams[a]) // never b
		p.pump()

		retained = 0
		for _, st := range p.client.streams {
			for _, r := range st.retransmit {
				retained += len(r.wire)
			}
		}
		ps := p.client.PoolStats()
		truth = int(ps.PayloadGets-ps.PayloadPuts)*record.MaxRecordLen + len(p.client.pinned)*outChunkBytes
		slack := (len(p.client.lent) + len(p.client.conns)) * outChunkBytes
		if truth > 2*retained+slack {
			t.Fatalf("round %d: %d B pinned for %d B retained (%d Bufs, %d chunks)",
				round, truth, retained, ps.PayloadGets-ps.PayloadPuts, len(p.client.pinned))
		}
		if len(p.client.streams[b].retransmit) != round || len(p.client.streams[a].retransmit) != 0 {
			t.Fatalf("round %d: %d records of b and %d of a retained", round,
				len(p.client.streams[b].retransmit), len(p.client.streams[a].retransmit))
		}
	}
	t.Logf("after 40 rounds: %d B pinned for %d B retained (%.2fx)", truth, retained, float64(truth)/float64(retained))
}

// TestReceiveLeavesInputIntact: Receive decrypts out of place, so the
// bytes it was handed — the I/O wrapper's read buffer — are as they
// were, on a plain stream and on coupled paths, whether a record was
// delivered, parked or kept by a receive queue.
func TestReceiveLeavesInputIntact(t *testing.T) {
	p := newPair(t, Config{EnableFailover: true})
	p.addConn(1)
	s0, _ := p.client.CreateStream(0)
	s1, _ := p.client.CreateStream(1)
	p.pump()
	max := p.client.cfg.maxPayload()
	p.client.Write(s0, make([]byte, 3*max+10))
	p.client.SetCoupled(s0, true)
	p.client.SetCoupled(s1, true)
	p.client.WriteCoupled(make([]byte, 5*max))
	if err := p.client.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint32{0, 1} {
		out, err := p.client.Outgoing(c)
		if err != nil {
			t.Fatal(err)
		}
		pristine := bytes.Clone(out)
		if err := p.server.Receive(c, out, p.now); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, pristine) {
			t.Fatalf("Receive wrote into the %d bytes it was given on conn %d", len(out), c)
		}
	}
	if got := p.server.Readable(s0) + p.server.CoupledReadable(); got != 8*max+10 {
		t.Fatalf("%d bytes readable, want %d", got, 8*max+10)
	}
}

// TestBufferedBytesCountsCoupledQueues: the memory the server's
// admission budget and the snapshot read includes the coupled group's
// own receive and pending queues — a reply nobody has read yet, and
// bytes written while every coupled path is down.
func TestBufferedBytesCountsCoupledQueues(t *testing.T) {
	p := newPair(t, Config{})
	p.addConn(1)
	s0, _ := p.client.CreateStream(0)
	s1, _ := p.client.CreateStream(1)
	p.client.SetCoupled(s0, true)
	p.client.SetCoupled(s1, true)
	p.pump()
	if _, err := p.client.WriteCoupled(make([]byte, 40000)); err != nil {
		t.Fatal(err)
	}
	p.pump()
	p.server.ReadCoupled(make([]byte, 40000))
	const reply = 30000
	if _, err := p.server.WriteCoupled(make([]byte, reply)); err != nil {
		t.Fatal(err)
	}
	p.pump()
	if got := p.client.BufferedBytes(); got != reply {
		t.Fatalf("BufferedBytes %d with a %d-byte reply unread", got, reply)
	}
	p.client.ReportConnFailed(0)
	p.client.ReportConnFailed(1)
	if _, err := p.client.WriteCoupled(make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if got, snap := p.client.BufferedBytes(), snapshot(p.client); got != reply+500 || snap.MemoryBytes != got {
		t.Fatalf("BufferedBytes %d, MemoryBytes %d with a %d-byte reply unread and 500 bytes parked",
			got, snap.MemoryBytes, reply)
	}
}
