package bench

import "testing"

// go-bench entry points for the tracked workloads, so regressions surface
// in ordinary `go test -bench` runs as well as in `make bench`.

func BenchmarkMatMul256(b *testing.B)           { MatMul256(b) }
func BenchmarkMatMul256F32(b *testing.B)        { MatMul256F32(b) }
func BenchmarkMatMulTransB128(b *testing.B)     { MatMulTransB128(b) }
func BenchmarkConvLowering(b *testing.B)        { ConvLowering(b) }
func BenchmarkConvLoweringF32(b *testing.B)     { ConvLoweringF32(b) }
func BenchmarkConvForwardBackward(b *testing.B) { ConvForwardBackward(b) }
func BenchmarkReluFwd1M(b *testing.B)           { ReluFwd1M(b) }
func BenchmarkReluFwd1MF32(b *testing.B)        { ReluFwd1MF32(b) }
func BenchmarkReluGate1M(b *testing.B)          { ReluGate1M(b) }
func BenchmarkReluGate1MF32(b *testing.B)       { ReluGate1MF32(b) }
func BenchmarkBiasAxpy1M(b *testing.B)          { BiasAxpy1M(b) }
func BenchmarkBiasAxpy1MF32(b *testing.B)       { BiasAxpy1MF32(b) }
func BenchmarkFig4ClientsSweep(b *testing.B)    { Fig4ClientsSweep(b) }
func BenchmarkFig4ClientsSweepF32(b *testing.B) { Fig4ClientsSweepF32(b) }
func BenchmarkRobustAggMean(b *testing.B)       { RobustAggMean(b) }
func BenchmarkRobustAggMedian(b *testing.B)     { RobustAggMedian(b) }
func BenchmarkRobustAggTrimmed(b *testing.B)    { RobustAggTrimmed(b) }
func BenchmarkRobustAggClipped(b *testing.B)    { RobustAggClipped(b) }
func BenchmarkRobustRoundMean(b *testing.B)     { RobustRoundMean(b) }
func BenchmarkRobustRoundMedian(b *testing.B)   { RobustRoundMedian(b) }
func BenchmarkRobustRoundTrimmed(b *testing.B)  { RobustRoundTrimmed(b) }
func BenchmarkWireBinaryDecode(b *testing.B)    { WireBinaryDecode(b) }
func BenchmarkWireTopK8Decode(b *testing.B)     { WireTopK8Decode(b) }
func BenchmarkWireTopK16Decode(b *testing.B)    { WireTopK16Decode(b) }
