package tcpls

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"tcpls/internal/core"
)

// coupledBlock is the WriteCoupled size of the bulk_failover_2p shape.
const coupledBlock = 1 << 20

// coupledResult is what the receiving side of a coupled bulk transfer
// saw: the bytes it read, the offset of the first wrong one (-1 for
// none) and its session's counters.
type coupledResult struct {
	got, mismatch int64
	snap          Snapshot
}

// coupledBulk moves total bytes in 1 MiB WriteCoupled blocks over two
// coupled streams on two loopback paths, at the default Config apart
// from EnableFailover: the bulk_failover_2p shape. Block i is a seeded
// block with i in its first 8 bytes, checked byte for byte on arrival.
// With killAt > 0, connection 0's socket is closed under the client
// before block killAt. It returns the server's view and the client's
// snapshot, taken once the server has read everything.
func coupledBulk(t *testing.T, total, killAt int) (coupledResult, Snapshot) {
	t.Helper()
	base := make([]byte, coupledBlock)
	rand.New(rand.NewSource(7)).Read(base)
	expect := func(off int64, p []byte) bool {
		for len(p) > 0 {
			in := int(off % coupledBlock)
			n := min(len(p), coupledBlock-in)
			want := base[in : in+n]
			if in < 8 {
				var hdr [8]byte
				binary.LittleEndian.PutUint64(hdr[:], uint64(off/coupledBlock))
				k := min(n, 8-in)
				if !bytes.Equal(p[:k], hdr[in:in+k]) {
					return false
				}
				p, want, off, n = p[k:], want[k:], off+int64(k), n-k
			}
			if !bytes.Equal(p[:n], want) {
				return false
			}
			p, off = p[n:], off+int64(n)
		}
		return true
	}

	done := make(chan coupledResult, 1)
	srv := startChaosServer(t, &Config{EnableFailover: true}, func(sess *Session) {
		for i := 0; i < 2; i++ {
			if _, err := sess.AcceptStream(context.Background()); err != nil {
				return
			}
		}
		res := coupledResult{mismatch: -1}
		buf := make([]byte, 256<<10)
		for res.got < int64(total) {
			n, err := sess.ReadCoupled(buf)
			if err != nil {
				break
			}
			if res.mismatch < 0 && !expect(res.got, buf[:n]) {
				res.mismatch = res.got
			}
			res.got += int64(n)
		}
		res.snap = sess.Snapshot()
		done <- res
	})

	sess, err := Dial("tcp", srv.ln.Addr().String(), &Config{ServerName: "test.server", EnableFailover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := sess.JoinPath("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sess.OpenStreamOn(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Couple(st, st2); err != nil {
		t.Fatal(err)
	}
	block := append([]byte(nil), base...)
	for i := 0; i < total/coupledBlock; i++ {
		if killAt > 0 && i == killAt {
			sess.mu.Lock()
			sess.pathConnLocked(0).nc.Close()
			sess.mu.Unlock()
		}
		binary.LittleEndian.PutUint64(block, uint64(i))
		if _, err := sess.WriteCoupled(block); err != nil {
			t.Fatalf("block %d (%d MiB): %v", i, i*coupledBlock>>20, err)
		}
	}
	var res coupledResult
	select {
	case res = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("the server never read the whole transfer")
	}
	if res.got != int64(total) || res.mismatch >= 0 {
		t.Fatalf("server read %d of %d bytes, first wrong byte at %d", res.got, total, res.mismatch)
	}
	return res, sess.Snapshot()
}

// TestCoupledBulkDefaultConfig: two honest peers move 2 GiB over two
// coupled loopback paths at the default window and limits: byte-exact,
// with no failover and no failed decryption on either end. Under -race
// it moves 64 MiB.
func TestCoupledBulkDefaultConfig(t *testing.T) {
	total := 2 << 30
	switch {
	case raceEnabled:
		total = 64 << 20
	case testing.Short():
		t.Skip("2 GiB over loopback")
	}
	srv, cl := coupledBulk(t, total, 0)
	for side, s := range []Snapshot{cl, srv.snap} {
		if s.Failovers != 0 || s.ConnFailures != 0 || s.Stats.FailedDecrypts != 0 {
			t.Errorf("side %d: %d failovers, %d connection failures, %d failed decrypts",
				side, s.Failovers, s.ConnFailures, s.Stats.FailedDecrypts)
		}
	}
	if srv.snap.ReorderBytesPeak >= core.DefaultMaxRetransmitBytes {
		t.Errorf("reorder heap peaked at %d bytes, not below the window", srv.snap.ReorderBytesPeak)
	}
}

// TestCoupledBulkPathKilledMidway: one path's socket dies halfway
// through a 256 MiB coupled transfer at the default config. The replay
// onto the survivor decrypts cleanly and the transfer lands byte-exact.
// Under -race it moves 64 MiB.
func TestCoupledBulkPathKilledMidway(t *testing.T) {
	total := 256 << 20
	switch {
	case raceEnabled:
		total = 64 << 20
	case testing.Short():
		t.Skip("256 MiB over loopback")
	}
	srv, cl := coupledBulk(t, total, total/coupledBlock/2)
	if cl.Failovers == 0 {
		t.Error("the killed path never failed over")
	}
	for side, s := range []Snapshot{cl, srv.snap} {
		if s.Stats.FailedDecrypts != 0 {
			t.Errorf("side %d: %d failed decrypts", side, s.Stats.FailedDecrypts)
		}
	}
}
