//go:build !race

package record

// recycle returns a released Buf's storage to the store.
func recycle(b *Buf) { bufStore.Put(b) }
