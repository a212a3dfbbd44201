package core

import "github.com/cip-fl/cip/internal/tensor"

// Precision policy for CIP training.
//
// The compute tier (the tensor GEMMs behind the dense and conv layers) can
// run in float32, but the federation's OBSERVABLE state stays float64 no
// matter what the policy says. Concretely, under SetTrainingPrecision(F32):
//
//   - Layer parameters, the Eq. 2 blend x' = α·t + (1-α)·x, the Eq. 3/4
//     losses, and SGD/momentum state remain float64. Only the inner GEMM
//     narrows its operands, accumulates each k-block in f32, and widens
//     the partial sums back — f64 accumulation across blocks keeps the
//     long CIP training runs from drifting at f32 epsilon per block.
//   - Updates crossing internal/fl are []float64; ValidateUpdate, the
//     robust folds, reputation scoring, the wire codec, compression banks,
//     and the checkpoint container are byte-for-byte unchanged. A client
//     training in f32 interoperates with an f64 server and vice versa.
//   - Checkpoints taken under either policy restore under either policy;
//     precision is a per-process compute choice, not persisted state.
//
// Determinism: each precision is individually bit-reproducible — fixed
// kernel dispatch per process and a worker-count-independent reduction
// order (see internal/tensor). f32 and f64 runs are DIFFERENT numerics,
// not approximations of each other; compare metrics across precisions
// with tolerance, never bitwise.
//
// Set the policy once at startup (cmd/ciptrain and cmd/cipbench expose it
// as -precision); flipping it mid-training would change kernel numerics
// between rounds and break reproducibility.

// SetTrainingPrecision selects the compute tier for subsequent training.
func SetTrainingPrecision(p tensor.Precision) { tensor.SetPrecision(p) }

// TrainingPrecision reports the active compute tier.
func TrainingPrecision() tensor.Precision { return tensor.CurrentPrecision() }
