package core

import (
	"bytes"
	"math/rand"
	"testing"

	"tcpls/internal/record"
)

// TestSegQueueMatchesBytesBuffer drives the segment queue and a
// bytes.Buffer with the same seeded Append/ReadInto sequence — sizes
// from nothing to three segments, so every boundary case (a piece that
// ends exactly on a segment, one that spans two, an empty one) comes up
// — and requires identical bytes and Len after every step, and every
// segment back in the pool once the queue is drained.
func TestSegQueueMatchesBytesBuffer(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := record.NewBufferPool()
		q := segQueue{pool: pool}
		var ref bytes.Buffer
		size := func() int {
			switch rng.Intn(4) {
			case 0:
				return rng.Intn(64)
			case 1: // on a segment boundary or one byte off it
				return min(max(rng.Intn(4)*record.MaxPlaintextLen+rng.Intn(3)-1, 0), 3*record.MaxPlaintextLen)
			default:
				return rng.Intn(3*record.MaxPlaintextLen + 1)
			}
		}
		got, want := make([]byte, 3*record.MaxPlaintextLen), make([]byte, 3*record.MaxPlaintextLen)
		for step := 0; step < 4000; step++ {
			if rng.Intn(2) == 0 {
				p := make([]byte, size())
				rng.Read(p)
				q.Append(p)
				ref.Write(p)
			} else {
				n := size()
				gn := q.ReadInto(got[:n])
				wn, _ := ref.Read(want[:n])
				if gn != wn || !bytes.Equal(got[:gn], want[:wn]) {
					t.Fatalf("seed %d step %d: read %d bytes, reference read %d (equal bytes: %v)",
						seed, step, gn, wn, bytes.Equal(got[:gn], want[:wn]))
				}
			}
			if q.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: Len %d, reference %d", seed, step, q.Len(), ref.Len())
			}
			if q.Len() == 0 && !pool.Balanced() {
				gets, puts := pool.Stats()
				t.Fatalf("seed %d step %d: empty queue still holds segments (%d gets, %d puts)", seed, step, gets, puts)
			}
		}
		for q.Len() > 0 {
			q.ReadInto(got)
		}
		if !pool.Balanced() {
			t.Fatalf("seed %d: drained queue left the pool unbalanced", seed)
		}
	}
}
