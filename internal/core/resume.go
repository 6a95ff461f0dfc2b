package core

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// init pins gob's process-global type-id assignment for the wire types this
// package serializes. gob numbers types in first-use order across the
// whole process, so without this a model saved after a checkpoint decode (the
// resume path) would carry different — though equivalent — type ids than one
// saved by a fresh run, and byte-level comparison of published models would
// fail. Warming an encoder here, in a fixed order, makes Save output a pure
// function of the model in every process.
func init() {
	enc := gob.NewEncoder(io.Discard)
	_ = enc.Encode(modelState{Snap: &nn.Snapshot{}})
	_ = enc.Encode(TrainerState{Params: &nn.Snapshot{}, Opt: &nn.AdamState{}})
	_ = enc.Encode(modelHeader{})
}

// Phase names used by TrainerState and TrainEvent.
const (
	PhaseTrain       = "train"
	PhaseIncremental = "incremental"
)

// TrainerState is the complete resumable state of a training run at an epoch
// boundary: model weights, Adam moment vectors, the dynamic ω weights of
// Section 6.2, the RNG stream position, epoch counters, and the
// best-validation snapshot. It is captured through TrainEvent.Snapshot,
// gob-serializes (Config's func fields are dropped, as gob always does), and
// feeds ResumeTrain / ResumeIncrementalTrain, which continue the run
// bit-identically to one that was never interrupted.
type TrainerState struct {
	Phase    string // PhaseTrain or PhaseIncremental
	Cfg      Config // config of the run (Hook/Stop not serialized)
	InDim    int
	TauTop   int
	DataHash uint64 // hash of the train/valid sets, to catch dataset drift on resume

	Epoch    int    // completed epochs in this phase
	RNGDraws uint64 // values consumed from the phase's RNG stream

	Params *nn.Snapshot  // current model weights
	Opt    *nn.AdamState // Adam moments and step counter

	Omega       []float64 // dynamic per-distance weights ω entering the next epoch
	PrevPerDist []float64 // previous epoch's per-distance validation losses
	HavePrev    bool

	Best           *nn.Snapshot // best-validation weights so far (nil before the first validation)
	BestValidMSLE  float64
	BadStreak      int // consecutive non-improving validations (early-stop counter)
	FinalTrainLoss float64

	// Incremental-phase counters (Section 8's stability stop rule).
	Stable    int
	LastValid float64
	ValidMSLE float64
}

// RestoreTrainer rebuilds the model a TrainerState was captured from: the
// architecture comes from the checkpointed config and the weights from the
// checkpointed snapshot. The caller may attach a fresh Hook/Stop to the
// returned model's Cfg (they are not serialized) before resuming.
func RestoreTrainer(st *TrainerState) (*Model, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil trainer state")
	}
	m, err := restore(st.Cfg, st.InDim, st.TauTop, st.Params)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint does not match its own config (corrupt state?): %w", err)
	}
	return m, nil
}

// ResumeTrain continues a Train run from a checkpointed state. The model
// must have been built by RestoreTrainer from the same state (or be
// configured identically), and train/valid must be the datasets of the
// original run — both are verified. The resumed run is bit-identical to an
// uninterrupted one at the same seed and worker count.
func (m *Model) ResumeTrain(train, valid *TrainSet, st *TrainerState) (TrainResult, error) {
	if err := m.verifyResume(st, PhaseTrain, train, valid); err != nil {
		return TrainResult{}, err
	}
	return m.runTrain(train, valid, st)
}

// ResumeIncrementalTrain continues an IncrementalTrain run from a
// checkpointed state, under the same contract as ResumeTrain.
func (m *Model) ResumeIncrementalTrain(train, valid *TrainSet, st *TrainerState) (IncrementalResult, error) {
	if err := m.verifyResume(st, PhaseIncremental, train, valid); err != nil {
		return IncrementalResult{}, err
	}
	return m.runIncremental(train, valid, 0, st)
}

// restoreRun puts a verified state's weights and Adam moments back and
// replays the run's RNG stream to the interruption point — the restore
// steps Train and IncrementalTrain share.
func (st *TrainerState) restoreRun(params []*nn.Param, opt *nn.Adam, src *countingSource) error {
	if err := st.Params.Restore(params); err != nil {
		return fmt.Errorf("core: restore weights: %w", err)
	}
	if err := opt.SetState(st.Opt); err != nil {
		return fmt.Errorf("core: restore optimizer: %w", err)
	}
	src.Skip(st.RNGDraws)
	return nil
}

// verifyResume checks that a checkpoint is resumable on this model: right
// phase, identical config (shape and training hyperparameters, including
// Workers — a different worker count would be a different, non-bit-identical
// run), matching input dimensionality, the same training data, an RNG
// position the run could have reached, and — for a train-phase state — ω
// and previous per-distance vectors of length τmax+1 and a best-validation
// snapshot shaped like the weights. All of it is checked before any
// training, so a malformed state fails at once instead of zero-padding ω
// (which disables Eq. 3 at those distances), skipping the stream for hours,
// or panicking when the resumed run ends.
func (m *Model) verifyResume(st *TrainerState, phase string, train, valid *TrainSet) error {
	if st == nil {
		return fmt.Errorf("core: nil trainer state")
	}
	if st.Phase != phase {
		return fmt.Errorf("core: checkpoint is from phase %q, resuming %q", st.Phase, phase)
	}
	if st.Params == nil || st.Opt == nil {
		return fmt.Errorf("core: trainer state is missing weights or optimizer moments")
	}
	if st.InDim != m.InDim {
		return fmt.Errorf("core: checkpoint in_dim %d, model %d", st.InDim, m.InDim)
	}
	if err := configsCompatible(m.Cfg, st.Cfg); err != nil {
		return err
	}
	if h := hashTrainData(train, valid); h != st.DataHash {
		return fmt.Errorf("core: training data hash %#x differs from the checkpoint's %#x — resume needs the dataset (and split) of the original run", h, st.DataHash)
	}
	if m.Cfg.Batch < 1 || st.Epoch < 0 {
		return fmt.Errorf("core: checkpoint batch size %d or epoch %d is not a training run's", m.Cfg.Batch, st.Epoch)
	}
	epochs := st.Epoch
	if phase == PhaseTrain && m.vae != nil {
		epochs += max(m.Cfg.VAEEpochs, 0) // pretraining draws from the same stream
	}
	if limit := maxDraws(epochs, train.NumQueries(), m.Cfg.VAELatent, m.Cfg.Batch, m.workers()); st.RNGDraws > limit {
		return fmt.Errorf("core: checkpoint RNG position %d is beyond the %d draws %d epochs can make", st.RNGDraws, limit, epochs)
	}
	if phase != PhaseTrain {
		return nil // the incremental phase restarts ω and keeps no best snapshot
	}
	t := m.tauCount()
	if len(st.Omega) != t || len(st.PrevPerDist) != t {
		return fmt.Errorf("core: checkpoint ω has %d and previous per-distance losses %d entries, model has τmax+1 = %d",
			len(st.Omega), len(st.PrevPerDist), t)
	}
	if st.Best != nil {
		if err := st.Best.Check(m.Params()); err != nil {
			return fmt.Errorf("core: checkpoint best-validation snapshot: %w", err)
		}
	}
	return nil
}

// configsCompatible reports whether two configs describe the same training
// run. Hook and Stop are runtime attachments, not run identity, so they are
// ignored; everything else — architecture, hyperparameters, seed, worker
// count — must match exactly for a resume to be bit-identical.
func configsCompatible(a, b Config) error {
	a.Hook, b.Hook = nil, nil
	a.Stop, b.Stop = nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("core: config differs from the checkpoint's (got %+v, checkpoint %+v)", a, b)
	}
	return nil
}

// hashTrainData fingerprints the train and valid sets (dimensions, features,
// labels, and threshold distribution) so a resume against different data —
// which would silently train a different model — fails loudly instead. FNV
// over the raw float bits; computed once per run.
func hashTrainData(train, valid *TrainSet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloats := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	writeSet := func(ts *TrainSet) {
		if ts == nil {
			writeInt(-1)
			return
		}
		writeInt(ts.TauTop)
		writeMatrix(writeInt, writeFloats, ts.X)
		writeMatrix(writeInt, writeFloats, ts.Labels)
		writeInt(len(ts.P))
		writeFloats(ts.P)
	}
	writeSet(train)
	writeSet(valid)
	return h.Sum64()
}

// writeMatrix feeds a matrix's shape and contents to the data hash.
func writeMatrix(writeInt func(int), writeFloats func([]float64), m *tensor.Matrix) {
	if m == nil {
		writeInt(-1)
		return
	}
	writeInt(m.Rows)
	writeInt(m.Cols)
	for r := 0; r < m.Rows; r++ {
		writeFloats(m.Row(r))
	}
}
