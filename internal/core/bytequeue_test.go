package core

import (
	"bytes"
	"math/rand"
	"testing"

	"tcpls/internal/record"
)

// TestSegQueueMatchesBytesBuffer drives the segment queue and a
// bytes.Buffer with the same seeded Append/Adopt/ReadInto sequence —
// sizes from nothing to three segments, so every boundary case (a piece
// that ends exactly on a segment, one that spans two, an empty one, a
// copy into the free tail of an adopted Buf) comes up — and requires
// identical bytes and Len after every step, and every segment back in
// the pool once the queue is drained.
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
				return min(max(rng.Intn(4)*record.MaxRecordLen+rng.Intn(3)-1, 0), 3*record.MaxRecordLen)
			default:
				return rng.Intn(3*record.MaxRecordLen + 1)
			}
		}
		got, want := make([]byte, 3*record.MaxRecordLen), make([]byte, 3*record.MaxRecordLen)
		for step := 0; step < 4000; step++ {
			switch rng.Intn(3) {
			case 0:
				p := make([]byte, size())
				rng.Read(p)
				q.Append(p)
				ref.Write(p)
			case 1:
				b := pool.Get(record.MaxRecordLen)
				p := b.Bytes()[:1+rng.Intn(record.MaxRecordLen)]
				rng.Read(p)
				q.Adopt(b, len(p))
				ref.Write(p)
			default:
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
			if gets, puts := pool.Stats(); q.Len() == 0 && gets != puts {
				t.Fatalf("seed %d step %d: empty queue still holds segments (%d gets, %d puts)", seed, step, gets, puts)
			}
		}
		for q.Len() > 0 {
			q.ReadInto(got)
		}
		if gets, puts := pool.Stats(); gets != puts {
			t.Fatalf("seed %d: drained queue left the pool unbalanced", seed)
		}
	}
}
