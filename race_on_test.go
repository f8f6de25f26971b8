//go:build race

package tcpls

// raceEnabled reports whether the race detector is active: transfers
// sized for throughput shrink under it.
const raceEnabled = true
