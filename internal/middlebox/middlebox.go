// Package middlebox implements the interference zoo of the paper's
// Sec. 2 and Sec. 5.2: the byte-mangling classes as manglers for an
// internal/netem relay, which accepts client connections and forwards
// bytes to the real server, and a TLS-terminating proxy. TCPLS's design
// claim — everything past the handshake is indistinguishable from TLS
// 1.3, so only extension-visible middleboxes can interfere, and then
// only to the point of fallback — is exercised against each class.
//
// Classes (paper Sec. 2's taxonomy):
//
//   - NAT / address rewriting: invisible at the byte-stream layer;
//     modeled by a plain relay (addresses change, payload untouched).
//   - Resegmentation (TSO/GRO-style splitting and coalescing):
//     Resegmenter re-chunks the stream arbitrarily.
//   - Extension-dropping firewall: RejectTCPLSHello kills connections
//     whose ClientHello carries unknown (TCPLS) extensions — the
//     explicit-fallback case.
//   - Payload-corrupting ALG: Corrupter flips bytes in the stream; TCPLS
//     must detect (AEAD) and fail closed rather than deliver corrupt
//     data.
//   - Delaying, stalling and aborting proxies: the relay's Profile.Delay,
//     Stall and KillAfter.
//   - TLS-terminating proxy: a real man-in-the-middle that terminates
//     the TLS session with its own certificate and re-originates it;
//     TCPLS must fall back to plain TLS (the proxy strips the TCPLS
//     echo) and the client must notice the changed identity if it pins
//     keys.
package middlebox

import (
	"io"

	"tcpls/internal/netem"
	"tcpls/internal/wire"
)

// Resegmenter returns a mangler that re-chunks the byte stream into
// sizes cycling through the given list (the paper's "high-speed network
// adapters that fragment large TCP packets" class). Record boundaries
// are destroyed; a correct deframer must not care.
func Resegmenter(sizes ...int) func() netem.Mangler {
	if len(sizes) == 0 {
		sizes = []int{1, 7, 64, 512, 4096}
	}
	return func() netem.Mangler {
		idx := 0
		return func(chunk []byte) ([][]byte, error) {
			var out [][]byte
			for len(chunk) > 0 {
				n := min(sizes[idx%len(sizes)], len(chunk))
				idx++
				out = append(out, chunk[:n])
				chunk = chunk[n:]
			}
			return out, nil
		}
	}
}

// Corrupter returns a mangler that flips one bit every intervalBytes
// (the payload-rewriting ALG class). AEAD-protected records must reject
// the corruption.
func Corrupter(intervalBytes int) func() netem.Mangler {
	return func() netem.Mangler {
		seen := 0
		return func(chunk []byte) ([][]byte, error) {
			for i := range chunk {
				seen++
				if seen%intervalBytes == 0 {
					chunk[i] ^= 0x01
				}
			}
			return [][]byte{chunk}, nil
		}
	}
}

// RejectTCPLSHello returns a mangler that inspects each connection's
// first chunk and aborts the connection if its ClientHello advertises
// the TCPLS Hello extension — the overly strict firewall of Sec. 5.2
// that forces the client's explicit fallback.
func RejectTCPLSHello() func() netem.Mangler {
	return func() netem.Mangler {
		first := true
		return func(chunk []byte) ([][]byte, error) {
			if first && containsTCPLSHello(chunk) {
				return nil, errBlocked
			}
			first = false
			return [][]byte{chunk}, nil
		}
	}
}

var errBlocked = io.ErrClosedPipe

// containsTCPLSHello scans a raw first flight for the TCPLS Hello
// extension codepoint inside a TLS handshake record. The scan is the
// kind of shallow pattern match real DPI boxes perform.
func containsTCPLSHello(b []byte) bool {
	// Must look like a TLS handshake record carrying a ClientHello.
	if len(b) < 6 || b[0] != 22 || b[5] != 1 {
		return false
	}
	// Scan for the extension codepoint 0xfa00 followed by a plausible
	// length field.
	for i := 5; i+4 <= len(b); i++ {
		if b[i] == 0xfa && b[i+1] == 0x00 {
			elen := int(wire.Uint16(b[i+2:]))
			if i+4+elen <= len(b) {
				return true
			}
		}
	}
	return false
}
