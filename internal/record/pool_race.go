//go:build race

package record

// PoisonByte fills a released Buf under the race detector.
const PoisonByte = 0xdb

// recycle poisons a released Buf and keeps its storage out of the store:
// any view of it still read after the release sees PoisonByte, where the
// plain build would hand the storage to another record.
func recycle(b *Buf) {
	data := b.data[:cap(b.data)]
	for i := range data {
		data[i] = PoisonByte
	}
}
