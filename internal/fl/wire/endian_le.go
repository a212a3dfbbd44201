//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package wire

// swapWords converts each 8-byte word of b between wire (little-endian)
// and host byte order in place. A little-endian host already holds its
// words in wire order.
func swapWords([]byte) {}
