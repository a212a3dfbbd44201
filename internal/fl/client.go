package fl

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/rng"
	"github.com/cip-fl/cip/internal/tensor"
)

// TrainStep performs one optimizer step on a mini-batch and returns the
// batch loss. The default step minimizes softmax cross-entropy; the
// defenses package supplies alternatives (DP-SGD noise injection,
// adversarial regularization, Mixup+MMD, RelaxLoss) that plug in here, so
// every defense trains through the identical federated loop.
type TrainStep interface {
	Step(net nn.Layer, opt nn.Optimizer, x *tensor.Tensor, y []int) (loss float64)
}

// PlainStep is the undefended training step: minimize cross-entropy.
type PlainStep struct{}

// Step implements TrainStep.
func (PlainStep) Step(net nn.Layer, opt nn.Optimizer, x *tensor.Tensor, y []int) float64 {
	params := net.Params()
	nn.ZeroGrads(params)
	logits, cache := net.Forward(x, true)
	res := nn.SoftmaxCrossEntropy(logits, y)
	nn.TrainBackward(net, cache, res.Grad)
	opt.Step(params)
	return res.Loss
}

// ClientConfig carries the local-training hyperparameters shared by all
// client kinds. The paper's batch size is 32 with one local epoch per
// communication round (Section IV-A).
type ClientConfig struct {
	BatchSize   int
	LocalEpochs int
	// LR returns the learning rate for a round; nil means a constant 0.05.
	LR func(round int) float64
	// Momentum for the local SGD optimizer.
	Momentum float64
	// Augment applies the CIFAR-AUG crop/flip pipeline each epoch.
	Augment bool
	// AugmentPad is the crop padding when Augment is set (default 1).
	AugmentPad int
}

func (c ClientConfig) withDefaults() ClientConfig {
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
	return c
}

// DecaySchedule mirrors the paper's decaying learning-rate schedule: the
// base rate for the first third of rounds, half for the second, a fifth
// for the last.
func DecaySchedule(base float64, totalRounds int) func(int) float64 {
	return func(round int) float64 {
		switch {
		case totalRounds <= 0 || round < totalRounds/3:
			return base
		case round < 2*totalRounds/3:
			return base / 2
		default:
			return base / 5
		}
	}
}

// LegacyClient is a standard FedAvg participant training a plain
// classifier — the paper's "legacy model (without defense)", also reused by
// the baseline defenses via a custom TrainStep.
type LegacyClient struct {
	id   int
	net  nn.Layer
	data *datasets.Dataset
	cfg  ClientConfig
	step TrainStep
	opt  *nn.SGD
	rng  *rand.Rand
	// src is non-nil for clients built with NewStatefulLegacyClient: the
	// serializable source behind rng, required by CaptureState.
	src *rng.Source
	// spare is the next update's storage (nil: a fresh vector).
	spare []float64
}

// NewLegacyClient constructs a client. step may be nil for plain training.
func NewLegacyClient(id int, net nn.Layer, data *datasets.Dataset, cfg ClientConfig,
	step TrainStep, rng *rand.Rand) *LegacyClient {
	if step == nil {
		step = PlainStep{}
	}
	cfg = cfg.withDefaults()
	return &LegacyClient{
		id:   id,
		net:  net,
		data: data,
		cfg:  cfg,
		step: step,
		opt:  &nn.SGD{LR: cfg.LR(0), Momentum: cfg.Momentum},
		rng:  rng,
	}
}

// NewStatefulLegacyClient is NewLegacyClient for durable federations: the
// client's RNG runs on a serializable source seeded with rngSeed and its
// shard's sample order is tracked, so CaptureState/RestoreState can move
// the client's exact training position across process death. The plain
// TrainStep is stateless; custom steps with hidden state (e.g. DP-SGD's
// noise RNG) are not captured.
func NewStatefulLegacyClient(id int, net nn.Layer, data *datasets.Dataset, cfg ClientConfig,
	step TrainStep, rngSeed int64) *LegacyClient {
	r, src := rng.New(rngSeed)
	c := NewLegacyClient(id, net, data, cfg, step, r)
	c.src = src
	c.data.TrackOrder()
	return c
}

// legacyClientState is the gob layout of a LegacyClient's captured state.
type legacyClientState struct {
	Order    []int
	Velocity [][]float64
	RNG      uint64
}

// CaptureState implements StatefulClient.
func (c *LegacyClient) CaptureState() ([]byte, error) {
	if c.src == nil {
		return nil, fmt.Errorf("fl: client %d was not built with NewStatefulLegacyClient", c.id)
	}
	st := legacyClientState{
		Order:    c.data.Order(),
		Velocity: c.opt.CaptureVelocity(c.net.Params()),
		RNG:      c.src.State(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("fl: encoding client %d state: %w", c.id, err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements StatefulClient.
func (c *LegacyClient) RestoreState(blob []byte) error {
	if c.src == nil {
		return fmt.Errorf("fl: client %d was not built with NewStatefulLegacyClient", c.id)
	}
	var st legacyClientState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return fmt.Errorf("fl: decoding client %d state: %w", c.id, err)
	}
	if st.Order != nil {
		if err := c.data.ApplyOrder(st.Order); err != nil {
			return fmt.Errorf("fl: client %d: %w", c.id, err)
		}
	}
	if err := c.opt.RestoreVelocity(c.net.Params(), st.Velocity); err != nil {
		return fmt.Errorf("fl: client %d: %w", c.id, err)
	}
	c.src.SetState(st.RNG)
	return nil
}

// ID implements Client.
func (c *LegacyClient) ID() int { return c.id }

// NumSamples implements Client.
func (c *LegacyClient) NumSamples() int { return c.data.Len() }

// Net exposes the client's local model (attack vantage points need it).
func (c *LegacyClient) Net() nn.Layer { return c.net }

// Data exposes the client's local dataset (attack evaluation needs the
// ground-truth member set).
func (c *LegacyClient) Data() *datasets.Dataset { return c.data }

// TrainLocal implements Client: load globals, run local epochs, return the
// updated parameters.
func (c *LegacyClient) TrainLocal(round int, global []float64) (Update, error) {
	if err := nn.SetFlatParams(c.net.Params(), global); err != nil {
		return Update{}, fmt.Errorf("fl: client %d: %w", c.id, err)
	}
	// Momentum state persists across rounds on purpose: with one local
	// epoch per round it approximates server-side momentum and converges
	// noticeably faster than per-round resets on our scale.
	c.opt.LR = c.cfg.LR(round)
	loss, err := TrainEpochs(c.net, c.opt, c.step, c.data, c.cfg, c.rng)
	if err != nil {
		return Update{}, fmt.Errorf("fl: client %d: %w", c.id, err)
	}
	params := nn.FlattenParamsInto(c.spare, c.net.Params())
	c.spare = nil
	return Update{
		Params:     params,
		NumSamples: c.data.Len(),
		TrainLoss:  loss,
	}, nil
}

// RecycleUpdate implements UpdateRecycler.
func (c *LegacyClient) RecycleUpdate(params []float64) { c.spare = params }

// TrainEpochs runs cfg.LocalEpochs passes of mini-batch training over data
// and returns the mean batch loss of the final epoch.
func TrainEpochs(net nn.Layer, opt nn.Optimizer, step TrainStep,
	data *datasets.Dataset, cfg ClientConfig, rng *rand.Rand) (float64, error) {
	cfg = cfg.withDefaults()
	if step == nil {
		step = PlainStep{}
	}
	if data.Len() == 0 {
		return 0, fmt.Errorf("fl: empty training set")
	}
	// Only the plain step is known to keep nothing past its return; a
	// custom step owns its tensors' lifetimes and stays on the heap.
	var ws *tensor.Workspace
	if _, plain := step.(PlainStep); plain {
		ws = tensor.AcquireWorkspace()
		defer ws.Release()
	}
	var lastEpochLoss float64
	for e := 0; e < cfg.LocalEpochs; e++ {
		data.Shuffle(rng)
		var sum float64
		batches := 0
		for start := 0; start < data.Len(); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > data.Len() {
				end = data.Len()
			}
			x, y := data.BatchIn(ws, start, end)
			if cfg.Augment {
				x = datasets.AugmentBatch(rng, x, data.In, cfg.AugmentPad)
			}
			sum += step.Step(net, opt, x, y)
			batches++
			ws.Reset()
		}
		lastEpochLoss = sum / float64(batches)
	}
	return lastEpochLoss, nil
}

// Evaluate returns the accuracy of net on d, processed in batches.
func Evaluate(net nn.Layer, d *datasets.Dataset, batchSize int) float64 {
	correct := 0
	eachBatch(d, batchSize, func(x *tensor.Tensor, y []int) {
		logits, _ := net.Forward(x, false)
		correct += int(nn.Accuracy(logits, y)*float64(len(y)) + 0.5)
	})
	if d.Len() == 0 {
		return 0
	}
	return float64(correct) / float64(d.Len())
}

// MeanLoss returns the mean per-sample cross-entropy of net on d.
func MeanLoss(net nn.Layer, d *datasets.Dataset, batchSize int) float64 {
	var sum float64
	eachBatch(d, batchSize, func(x *tensor.Tensor, y []int) {
		for _, l := range nn.PerSampleLosses(net, x, y) {
			sum += l
		}
	})
	if d.Len() == 0 {
		return 0
	}
	return sum / float64(d.Len())
}

// Losses returns the per-sample cross-entropy losses of net on d — the
// probe every loss-threshold membership inference attack builds on.
func Losses(net nn.Layer, d *datasets.Dataset, batchSize int) []float64 {
	out := make([]float64, 0, d.Len())
	eachBatch(d, batchSize, func(x *tensor.Tensor, y []int) {
		out = append(out, nn.PerSampleLosses(net, x, y)...)
	})
	return out
}

// eachBatch hands fn d's batches of batchSize samples (≤ 0 means 64) in
// order, each drawn into a pooled workspace that is reset once fn returns.
func eachBatch(d *datasets.Dataset, batchSize int, fn func(x *tensor.Tensor, y []int)) {
	if batchSize <= 0 {
		batchSize = 64
	}
	ws := tensor.AcquireWorkspace()
	defer ws.Release()
	for start := 0; start < d.Len(); start += batchSize {
		fn(d.BatchIn(ws, start, min(start+batchSize, d.Len())))
		ws.Reset()
	}
}
