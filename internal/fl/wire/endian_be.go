//go:build mips || mips64 || ppc64 || s390x

package wire

import "slices"

// swapWords converts each 8-byte word of b between wire (little-endian)
// and host byte order in place: on a big-endian host, a byte reversal.
func swapWords(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		slices.Reverse(b[i : i+8])
	}
}
