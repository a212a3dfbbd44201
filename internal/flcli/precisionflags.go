package flcli

import (
	"flag"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/tensor"
)

// RegisterPrecisionFlag installs -precision on the default flag set.
// cmd/ciptrain and cmd/cipbench share it so both training and experiment
// runs can select the float32 compute tier with the same spelling.
func RegisterPrecisionFlag() *string {
	return flag.String("precision", "f64",
		"training compute precision: f64 (default) or f32 (float32 GEMM with float64 "+
			"interchange at the FL boundary; each precision is bit-reproducible but the "+
			"two are different numerics)")
}

// ApplyPrecisionFlag parses the -precision value and installs it as the
// process-wide training precision. Call once, right after flag.Parse.
func ApplyPrecisionFlag(value string) (tensor.Precision, error) {
	p, err := tensor.ParsePrecision(value)
	if err != nil {
		return tensor.F64, err
	}
	core.SetTrainingPrecision(p)
	return p, nil
}
