package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/rng"
	"github.com/cip-fl/cip/internal/tensor"
)

// TrainConfig carries CIP's hyperparameters. The paper's defaults are
// α∈[0.1,0.9] (0.9 for strong protection), λ_t ∈ [1e-12, 1e-3],
// λ_m ∈ [1e-12, 1e-6], perturbation learning rate 1e-2 (internal) or 1e-3
// (external); see Tables I and II.
type TrainConfig struct {
	Alpha   float64
	LambdaT float64 // L1 weight on t in Eq. 3
	LambdaM float64 // original-loss weight in Eq. 4

	// OriginalLossCap bounds the Eq. 4 maximization: the −λ_m gradient is
	// applied only while the original-query loss is below this level, so
	// member queries are pushed up to non-member territory and no further.
	// This realizes the paper's stated purpose for λ_m — "to avoid
	// abnormally high loss on original data" — as an explicit control
	// loop, which is far more stable at our scale than an always-on push.
	// Zero selects the automatic cap of 1.25·ln(numClasses), just above
	// the random-guess loss.
	OriginalLossCap float64

	// PerturbLR is the SGD rate for Step I updates of t.
	PerturbLR float64
	// PerturbEpochs is how many Step I passes run per round (default 1).
	PerturbEpochs int

	BatchSize   int
	LocalEpochs int
	LR          func(round int) float64
	Momentum    float64
	Augment     bool
	AugmentPad  int

	// ClipNorm bounds the global gradient L2 norm of each Step II update.
	// The α=0.9 blended task occasionally produces exploding batches on
	// small backbones; clipping makes training robust across seeds.
	// Zero selects the default of 5; negative disables clipping.
	ClipNorm float64

	// Metrics, when non-nil, receives the trainer's telemetry (Step I/II
	// losses, original-CE loss, epoch wall time). Nil disables recording.
	Metrics *Metrics
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.PerturbLR <= 0 {
		c.PerturbLR = 1e-2
	}
	if c.PerturbEpochs <= 0 {
		c.PerturbEpochs = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LocalEpochs <= 0 {
		c.LocalEpochs = 1
	}
	if c.LR == nil {
		c.LR = func(int) float64 { return 0.05 }
	}
	if c.AugmentPad <= 0 {
		c.AugmentPad = 1
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	return c
}

// StepIGeneratePerturbation performs one pass of Step I (Eq. 3): holding
// the model fixed, update t by SGD to minimize the blended training loss
// plus the λ_t·|t|₁ magnitude penalty. The updated t stays clipped to the
// valid input range. Returns the mean blended batch loss observed. The
// pass computes no parameter gradient, and the fixed weights are packed
// once for all of its batches.
func StepIGeneratePerturbation(m *CIPModel, data *datasets.Dataset, cfg TrainConfig, rng *rand.Rand) float64 {
	cfg = cfg.withDefaults()
	ws := tensor.AcquireWorkspace()
	defer ws.Release()
	params := m.Params()
	nn.PackWeights(params)
	defer nn.UnpackWeights(params)

	var sum float64
	batches := 0
	for e := 0; e < cfg.PerturbEpochs; e++ {
		data.Shuffle(rng)
		for start := 0; start < data.Len(); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > data.Len() {
				end = data.Len()
			}
			x, y := data.BatchIn(ws, start, end)
			if cfg.Augment {
				x = datasets.AugmentBatch(rng, x, data.In, cfg.AugmentPad)
			}
			m.ZeroTGrad()
			logits, cache := m.Forward(x, true)
			res := nn.SoftmaxCrossEntropy(logits, y)
			m.BackwardT(cache, res.Grad)

			for j := range m.T.Data {
				g := m.TGrad.Data[j]
				// Subgradient of λ_t·|t|₁.
				switch {
				case m.T.Data[j] > 0:
					g += cfg.LambdaT
				case m.T.Data[j] < 0:
					g -= cfg.LambdaT
				}
				m.T.Data[j] -= cfg.PerturbLR * g
			}
			tensor.ClampInPlace(m.T, m.Lo, m.Hi)
			sum += res.Loss
			batches++
			ws.Reset()
		}
	}
	if batches == 0 {
		return 0
	}
	mean := sum / float64(batches)
	cfg.Metrics.observeStep1(mean)
	return mean
}

// StepIILearnModel performs one epoch of Step II (Eq. 4): update the model
// parameters to minimize the loss on blended data while maximizing, with
// weight λ_m, the loss on adversarial queries of the original samples.
// Batches alternate between the zero-perturbation query (a naive external
// attacker) and a freshly drawn random perturbation (an adaptive attacker
// guessing t′, including a malicious client substituting its own — the
// Knowledge-1/3 adversaries), so membership is concealed under ANY
// perturbation other than the secret t. Returns the mean blended batch loss.
func StepIILearnModel(m *CIPModel, data *datasets.Dataset, cfg TrainConfig,
	opt nn.Optimizer, rng *rand.Rand) float64 {
	cfg = cfg.withDefaults()
	zeroQuery := m.WithT(m.ZeroT())
	guessT := m.ZeroT()
	guessQuery := m.WithT(guessT)
	ws := tensor.AcquireWorkspace()
	defer ws.Release()
	params := m.Params()

	var sum, origSum float64
	batches, origBatches := 0, 0
	data.Shuffle(rng)
	for start := 0; start < data.Len(); start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > data.Len() {
			end = data.Len()
		}
		x, y := data.BatchIn(ws, start, end)
		if cfg.Augment {
			x = datasets.AugmentBatch(rng, x, data.In, cfg.AugmentPad)
		}
		batch := ws.Mark()
		nn.ZeroGrads(params)
		// Both terms run both channels forward and backward through the
		// same weights until the optimizer step: pack them once.
		nn.PackWeights(params)

		// Term 1: minimize CE over D_t (weight +1). Only parameter
		// gradients are wanted, so neither term computes ∂L/∂x.
		logits, cache := m.Forward(x, true)
		res := nn.SoftmaxCrossEntropy(logits, y)
		nn.TrainBackward(m, cache, res.Grad)
		loss := res.Loss
		ws.Rewind(batch) // term 1's pass is dead; term 2 reuses its storage

		// Term 2: maximize CE over original queries (weight −λ_m),
		// per-sample capped — a member query is pushed up only while its
		// loss is still below the non-member reference level, so member
		// outputs come to "assemble other non-members" (§III) without the
		// runaway loss the paper's λ_m balancing guards against.
		if cfg.LambdaM != 0 {
			query := zeroQuery
			if batches%2 == 1 {
				guessT.RandUniform(rng, 0, 1)
				query = guessQuery
			}
			logits0, cache0 := query.Forward(x, true)
			res0 := nn.SoftmaxCrossEntropy(logits0, y)
			origSum += res0.Loss
			origBatches++
			cap := cfg.OriginalLossCap
			if cap <= 0 {
				cap = 1.25 * math.Log(float64(logits0.Shape[1]))
			}
			grad0 := res0.Grad
			kept := 0
			k := logits0.Shape[1]
			for i, l := range res0.PerSample {
				if l < cap {
					kept++
				} else {
					for j := 0; j < k; j++ {
						grad0.Data[i*k+j] = 0
					}
				}
			}
			if kept > 0 {
				nn.TrainBackward(query, cache0, tensor.Scale(grad0, -cfg.LambdaM))
			}
		}

		nn.UnpackWeights(params)
		if cfg.ClipNorm > 0 {
			nn.ClipGradNorm(params, cfg.ClipNorm)
		}
		opt.Step(params)
		sum += loss
		batches++
		ws.Reset()
	}
	if batches == 0 {
		return 0
	}
	mean := sum / float64(batches)
	var origMean float64
	if origBatches > 0 {
		origMean = origSum / float64(origBatches)
	}
	cfg.Metrics.observeStep2(mean, origMean, origBatches > 0)
	return mean
}

// Client is a CIP-defended federated-learning participant. Each round it
// alternates Step I (perturbation update) and Step II (model update), per
// §III-B, and reports only the model parameters — t never leaves the
// client.
type Client struct {
	id   int
	m    *CIPModel
	pert *Perturbation
	data *datasets.Dataset
	cal  *datasets.Dataset // held-out calibration split (may be nil)
	cfg  TrainConfig
	opt  *nn.SGD
	rng  *rand.Rand
	// src is non-nil for clients built with NewStatefulClient: the
	// serializable source behind rng, required by CaptureState.
	src *rng.Source
	// zero is the calibration model (t = 0), built once; it shares Dual.
	zero *CIPModel
	// spare is the next update's storage (nil: a fresh vector).
	spare []float64
}

// calibrationFraction of the local data is held out of training and used
// to estimate the non-member loss level the Eq. 4 maximization targets:
// held-out samples are in-distribution but not memorized, i.e. they behave
// exactly like non-members under zero-perturbation queries.
const calibrationFraction = 0.1

// NewClient builds a CIP client around an existing dual-channel model.
// pertSeed initializes the client's secret perturbation.
func NewClient(id int, dual *DualChannelModel, data *datasets.Dataset,
	cfg TrainConfig, pertSeed int64, rng *rand.Rand) *Client {
	cfg = cfg.withDefaults()
	pert := NewPerturbation(pertSeed, data.SampleShape(), 0, 1)
	m := NewCIPModel(dual, pert.T, cfg.Alpha)

	var cal *datasets.Dataset
	train := data
	if n := int(calibrationFraction * float64(data.Len())); n >= 4 {
		train, cal = data.Split(data.Len() - n)
	}
	return &Client{
		id:   id,
		m:    m,
		pert: pert,
		data: train,
		cal:  cal,
		cfg:  cfg,
		opt:  &nn.SGD{LR: cfg.LR(0), Momentum: cfg.Momentum},
		rng:  rng,
	}
}

// NewStatefulClient is NewClient for durable federations: the client's RNG
// runs on a serializable source seeded with rngSeed and the training
// shard's sample order is tracked, so CaptureState/RestoreState can move
// the client's exact training position — including the secret perturbation
// t, which evolves every round but never leaves the client — across
// process death.
func NewStatefulClient(id int, dual *DualChannelModel, data *datasets.Dataset,
	cfg TrainConfig, pertSeed, rngSeed int64) *Client {
	r, src := rng.New(rngSeed)
	c := NewClient(id, dual, data, cfg, pertSeed, r)
	c.src = src
	c.data.TrackOrder()
	return c
}

// cipClientState is the gob layout of a CIP client's captured state.
type cipClientState struct {
	T        []float64
	Order    []int
	Velocity [][]float64
	RNG      uint64
}

// CaptureState implements fl.StatefulClient.
func (c *Client) CaptureState() ([]byte, error) {
	if c.src == nil {
		return nil, fmt.Errorf("core: client %d was not built with NewStatefulClient", c.id)
	}
	st := cipClientState{
		T:        append([]float64(nil), c.pert.T.Data...),
		Order:    c.data.Order(),
		Velocity: c.opt.CaptureVelocity(c.m.Params()),
		RNG:      c.src.State(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("core: encoding client %d state: %w", c.id, err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements fl.StatefulClient.
func (c *Client) RestoreState(blob []byte) error {
	if c.src == nil {
		return fmt.Errorf("core: client %d was not built with NewStatefulClient", c.id)
	}
	var st cipClientState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return fmt.Errorf("core: decoding client %d state: %w", c.id, err)
	}
	if len(st.T) != len(c.pert.T.Data) {
		return fmt.Errorf("core: client %d snapshot has %d perturbation values, want %d",
			c.id, len(st.T), len(c.pert.T.Data))
	}
	// pert.T backs the CIP model's perturbation channel, so this restores
	// the model's view of t too.
	copy(c.pert.T.Data, st.T)
	if st.Order != nil {
		if err := c.data.ApplyOrder(st.Order); err != nil {
			return fmt.Errorf("core: client %d: %w", c.id, err)
		}
	}
	if err := c.opt.RestoreVelocity(c.m.Params(), st.Velocity); err != nil {
		return fmt.Errorf("core: client %d: %w", c.id, err)
	}
	c.src.SetState(st.RNG)
	return nil
}

// ID implements fl.Client.
func (c *Client) ID() int { return c.id }

// NumSamples implements fl.Client.
func (c *Client) NumSamples() int { return c.data.Len() }

// Model exposes the client's CIP model (evaluation and attacks need it).
func (c *Client) Model() *CIPModel { return c.m }

// Perturbation exposes the client's secret t. Only the evaluation harness
// reads this — in a deployment it never leaves the client.
func (c *Client) Perturbation() *Perturbation { return c.pert }

// Data exposes the client's local TRAINING set — the ground-truth member
// set for attack evaluation. The calibration split is not trained on and
// therefore not a member set.
func (c *Client) Data() *datasets.Dataset { return c.data }

// Calibration exposes the held-out calibration split (nil for very small
// shards).
func (c *Client) Calibration() *datasets.Dataset { return c.cal }

// Config returns the client's training configuration.
func (c *Client) Config() TrainConfig { return c.cfg }

// TrainLocal implements fl.Client: load the global parameters, run Step I
// then Step II, and return the updated model parameters (not t).
func (c *Client) TrainLocal(round int, global []float64) (fl.Update, error) {
	if err := nn.SetFlatParams(c.m.Params(), global); err != nil {
		return fl.Update{}, fmt.Errorf("core: client %d: %w", c.id, err)
	}
	c.opt.LR = c.cfg.LR(round)
	StepIGeneratePerturbation(c.m, c.data, c.cfg, c.rng)

	// Self-calibrate the Eq. 4 target: the zero-query loss of held-out
	// (non-memorized) local samples estimates the non-member loss level.
	cfg := c.cfg
	if cfg.LambdaM != 0 && cfg.OriginalLossCap <= 0 && c.cal != nil {
		if c.zero == nil {
			c.zero = c.m.WithT(c.m.ZeroT())
		}
		cfg.OriginalLossCap = fl.MeanLoss(c.zero, c.cal, 64)
	}
	var loss float64
	for e := 0; e < cfg.LocalEpochs; e++ {
		epochStart := time.Now()
		loss = StepIILearnModel(c.m, c.data, cfg, c.opt, c.rng)
		cfg.Metrics.observeEpoch(epochStart)
	}
	cfg.Metrics.observeRound()
	params := nn.FlattenParamsInto(c.spare, c.m.Params())
	c.spare = nil
	return fl.Update{
		Params:     params,
		NumSamples: c.data.Len(),
		TrainLoss:  loss,
	}, nil
}

// RecycleUpdate implements fl.UpdateRecycler.
func (c *Client) RecycleUpdate(params []float64) { c.spare = params }

var (
	_ fl.Client         = (*Client)(nil)
	_ fl.StatefulClient = (*Client)(nil)
	_ fl.UpdateRecycler = (*Client)(nil)
)
