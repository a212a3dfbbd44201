//go:build !amd64

package tensor

// asmSweeps32 lists no assembly bodies: this build's f32 sweep is the
// portable panel loop (on arm64 with NEON tiles, whose NaN rules differ
// from x86's and which no test host runs).
func asmSweeps32() []sweepBody32 { return nil }
