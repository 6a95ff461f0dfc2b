package core

import "time"

// TrainEvent describes one completed training epoch. Events are delivered
// synchronously from the training loop; hooks must not mutate the slices
// they receive (they are copies, but shared with no one else only until the
// hook returns if the hook retains them — copy again to retain).
type TrainEvent struct {
	Phase     string        // "train" or "incremental"
	Epoch     int           // 1-based epoch number within the phase
	TrainLoss float64       // mean batch loss of the epoch (0 for incremental)
	HasValid  bool          // validation ran this epoch
	ValidMSLE float64       // validation MSLE (when HasValid)
	BestMSLE  float64       // best validation MSLE so far (when HasValid)
	Omega     []float64     // per-distance ω weights entering the next epoch
	LR        float64       // optimizer learning rate
	EpochTime time.Duration // wall time of the epoch, including validation
	Improved  bool          // this epoch set a new best validation MSLE
	EarlyStop bool          // the patience budget ran out after this epoch

	// Snapshot captures the complete resumable trainer state at this epoch
	// boundary — weights, Adam moments, ω, RNG position, counters — as a
	// deep copy the caller may retain (internal/checkpoint persists it).
	// Calling it costs a full parameter copy, so hooks should only invoke it
	// when they actually intend to checkpoint. Valid only during the hook
	// call; the closure reads live trainer state and must not be retained
	// past the hook's return (the *returned* TrainerState is a copy and safe
	// to keep).
	Snapshot func() *TrainerState `json:"-"`
}

// TrainHook receives per-epoch TrainEvents from Train and IncrementalTrain.
// It is a func type so a Config carrying one still gob-serializes (gob
// ignores func fields, like unexported ones); Save/Load round-trips drop the
// hook.
type TrainHook func(TrainEvent)

// Config collects the model and training hyperparameters. Defaults are
// scaled down from Section 9.1.3 so CPU training finishes in seconds; the
// architecture is identical.
type Config struct {
	TauMax int // number of decoders − 1 (τmax)

	// Representation network Γ: a VAE whose latent is concatenated to x.
	VAEHidden []int
	VAELatent int
	VAEEpochs int

	// Shared encoder network Φ (or fused Φ′ for CardNet-A).
	PhiHidden []int
	EmbDim    int // distance-embedding dimensionality (paper: 5)
	ZDim      int // final embedding dimensionality (paper: 60)

	// Training.
	Epochs      int
	Batch       int // queries per batch
	LR          float64
	Lambda      float64 // λ, weight of the VAE loss (Eq. 2; paper: 0.1)
	LambdaDelta float64 // λΔ, weight of the per-distance loss (Eq. 3; paper: 0.1)
	ClipNorm    float64
	Patience    int // early-stop after this many non-improving validations (0 = off)

	// Accel selects the CardNet-A fused encoder Φ′ (Section 7).
	Accel bool

	// Workers is the data-parallel width of Train, IncrementalTrain, and the
	// VAE pretraining: each minibatch is split into Workers shards whose
	// forward/backward passes run concurrently on the shared worker pool,
	// with gradients reduced in shard order. ≤ 1 (including the zero value)
	// is the sequential trainer: one shard, drawing its noise from the
	// parent stream. A fixed Workers > 1 run is reproducible — per-shard
	// VAE noise streams are seeded deterministically and the reduction order
	// is fixed — but different worker counts are different (equally valid)
	// training runs, because sharding regroups floating-point sums and
	// reassigns noise draws.
	Workers int

	Seed int64

	// Hook, when set, observes every training epoch (telemetry only — it
	// cannot alter the run). Not serialized by Save.
	Hook TrainHook

	// Stop, when set, is polled after every epoch (after the Hook fires);
	// returning true ends the run at that epoch boundary with
	// Interrupted=true in the result. It is the cooperative half of graceful
	// SIGTERM handling: the checkpoint hook flushes state for the same
	// epoch, so an interrupted run resumes bit-identically. Like Hook it is
	// a func field and not serialized.
	Stop func() bool
}

// DefaultConfig returns the scaled-down default hyperparameters for a model
// with tauMax+1 decoders.
func DefaultConfig(tauMax int) Config {
	return Config{
		TauMax:      tauMax,
		VAEHidden:   []int{64, 32},
		VAELatent:   16,
		VAEEpochs:   20,
		PhiHidden:   []int{64, 64},
		EmbDim:      5,
		ZDim:        24,
		Epochs:      40,
		Batch:       32,
		LR:          1e-3,
		Lambda:      0.1,
		LambdaDelta: 0.1,
		ClipNorm:    5,
		Patience:    12,
		Seed:        1,
	}
}

// PaperConfig returns hyperparameters matching Section 9.1.3 (VAE hidden
// 256/128/128, Φ hidden 512/512/256/256, embedding dim 5, z dim 60). It is
// provided for completeness; training it on CPU takes hours, as in the
// paper's Table 10.
func PaperConfig(tauMax, vaeLatent int) Config {
	c := DefaultConfig(tauMax)
	c.VAEHidden = []int{256, 128, 128}
	c.VAELatent = vaeLatent
	c.VAEEpochs = 100
	c.PhiHidden = []int{512, 512, 256, 256}
	c.ZDim = 60
	c.Epochs = 800
	return c
}
