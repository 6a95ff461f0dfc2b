package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// gobRoundTrip pushes a TrainerState through gob, as the checkpoint file
// layer does, so the tests exercise exactly what a resume-after-restart sees.
func gobRoundTrip(t *testing.T, st *TrainerState) *TrainerState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatalf("encode trainer state: %v", err)
	}
	var out TrainerState
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode trainer state: %v", err)
	}
	return &out
}

// TestCountingSourceSkip locks in the property resume depends on: the stock
// math/rand source advances one internal step per Int63 or Uint64 call, so a
// source skipped forward by the observed draw count continues any mixed call
// history bit-identically.
func TestCountingSourceSkip(t *testing.T) {
	src := newCountingSource(42)
	rng := rand.New(src)
	// Mixed draw types, as training uses them: shuffles (Int63n), normals
	// (rejection sampling), floats, and raw Int63 shard seeds.
	perm := rand.Perm(50)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for i := 0; i < 100; i++ {
		rng.NormFloat64()
		rng.Float64()
		rng.Int63()
	}
	n := src.Draws()

	resumed := newCountingSource(42)
	resumed.Skip(n)
	r2 := rand.New(resumed)
	r1 := rng
	for i := 0; i < 200; i++ {
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("draw %d after skip: %d != %d", i, a, b)
		}
		if a, b := r1.NormFloat64(), r2.NormFloat64(); a != b {
			t.Fatalf("normal draw %d after skip: %v != %v", i, a, b)
		}
	}
}

// runInterrupted trains from scratch but stops at stopEpoch, returning the
// state captured at that boundary (gob round-tripped, as a checkpoint file
// would be).
func runInterrupted(t *testing.T, cfg Config, train, valid *TrainSet, stopEpoch int) *TrainerState {
	t.Helper()
	var st *TrainerState
	stop := false
	cfg.Hook = func(ev TrainEvent) {
		if ev.Epoch == stopEpoch {
			if ev.Snapshot == nil {
				t.Fatal("TrainEvent.Snapshot not set")
			}
			st = ev.Snapshot()
			stop = true
		}
	}
	cfg.Stop = func() bool { return stop }
	m := New(cfg, train.X.Cols)
	res := m.Train(train, valid)
	if !res.Interrupted {
		t.Fatalf("run was not interrupted (epochs=%d, want stop at %d)", res.Epochs, stopEpoch)
	}
	if res.Epochs != stopEpoch {
		t.Fatalf("interrupted at epoch %d, want %d", res.Epochs, stopEpoch)
	}
	// The interrupted model must equal the checkpoint exactly: no
	// best-restore is applied on interruption.
	if !bytes.Equal(saveBytes(t, m), func() []byte {
		m2, err := RestoreTrainer(st)
		if err != nil {
			t.Fatal(err)
		}
		return saveBytes(t, m2)
	}()) {
		t.Fatal("interrupted model differs from its own checkpoint")
	}
	return gobRoundTrip(t, st)
}

// TestResumeTrainBitIdentical is the kill-and-resume determinism contract: a
// training run interrupted at an arbitrary epoch and resumed from its
// checkpoint produces a bit-identical final model and result to an
// uninterrupted run with the same seed and worker count.
func TestResumeTrainBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, stopEpoch := range []int{1, 3, 5} {
			train, valid, _, _ := hammingFixture(t, 120)
			cfg := tinyConfig(train.TauTop, true)
			cfg.Epochs = 6
			cfg.Seed = 11
			cfg.Workers = workers
			tensor.SetWorkers(workers)

			ref := New(cfg, train.X.Cols)
			refRes := ref.Train(train, valid)
			refBytes := saveBytes(t, ref)

			st := runInterrupted(t, cfg, train, valid, stopEpoch)
			m2, err := RestoreTrainer(st)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := m2.ResumeTrain(train, valid, st)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(refBytes, saveBytes(t, m2)) {
				t.Fatalf("workers=%d stop=%d: resumed model differs from uninterrupted run", workers, stopEpoch)
			}
			if res2.Epochs != refRes.Epochs || res2.BestValidMSLE != refRes.BestValidMSLE ||
				res2.FinalTrainLoss != refRes.FinalTrainLoss {
				t.Fatalf("workers=%d stop=%d: resumed result %+v != reference %+v", workers, stopEpoch, res2, refRes)
			}
		}
	}
}

// TestResumeTrainNoVAE covers the VAE-ablated variant (no pretraining phase,
// different RNG consumption pattern).
func TestResumeTrainNoVAE(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 100)
	cfg := tinyConfig(train.TauTop, false)
	cfg.VAELatent = 0
	cfg.Epochs = 5
	cfg.Seed = 5
	tensor.SetWorkers(1)

	ref := New(cfg, train.X.Cols)
	ref.Train(train, valid)

	st := runInterrupted(t, cfg, train, valid, 2)
	m2, err := RestoreTrainer(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.ResumeTrain(train, valid, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, ref), saveBytes(t, m2)) {
		t.Fatal("resumed no-VAE model differs from uninterrupted run")
	}
}

// TestResumeIncrementalBitIdentical is the same contract for the Section 8
// update procedure.
func TestResumeIncrementalBitIdentical(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 120)
	cfg := tinyConfig(train.TauTop, true)
	cfg.Epochs = 4
	cfg.Seed = 9
	tensor.SetWorkers(1)

	base := New(cfg, train.X.Cols)
	base.Train(train, valid)
	baseBytes := saveBytes(t, base)

	// Perturb labels so IncrementalTrain actually trains.
	train2 := &TrainSet{X: train.X, Labels: train.Labels.Clone(), TauTop: train.TauTop, P: train.P}
	for r := 0; r < train2.Labels.Rows; r++ {
		row := train2.Labels.Row(r)
		for i := range row {
			row[i] = row[i]*1.6 + 2
		}
	}
	valid2 := &TrainSet{X: valid.X, Labels: valid.Labels.Clone(), TauTop: valid.TauTop, P: valid.P}
	for r := 0; r < valid2.Labels.Rows; r++ {
		row := valid2.Labels.Row(r)
		for i := range row {
			row[i] = row[i]*1.6 + 2
		}
	}

	restore := func() *Model {
		m, err := Load(bytes.NewReader(baseBytes))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	ref := restore()
	refRes := ref.IncrementalTrain(train2, valid2, 0)
	if ref.Cfg.Hook != nil || refRes.Skipped {
		t.Fatalf("unexpected reference run: %+v", refRes)
	}
	if refRes.Epochs < 3 {
		t.Skipf("reference incremental run too short (%d epochs) to interrupt", refRes.Epochs)
	}
	refBytes := saveBytes(t, ref)

	var st *TrainerState
	stop := false
	m1 := restore()
	m1.Cfg.Hook = func(ev TrainEvent) {
		if ev.Epoch == 2 {
			st = ev.Snapshot()
			stop = true
		}
	}
	m1.Cfg.Stop = func() bool { return stop }
	res1 := m1.IncrementalTrain(train2, valid2, 0)
	if !res1.Interrupted || st == nil {
		t.Fatalf("incremental run not interrupted: %+v", res1)
	}
	st = gobRoundTrip(t, st)

	m2, err := RestoreTrainer(st)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.ResumeIncrementalTrain(train2, valid2, st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, saveBytes(t, m2)) {
		t.Fatal("resumed incremental model differs from uninterrupted run")
	}
	if res2.Epochs != refRes.Epochs || res2.ValidMSLE != refRes.ValidMSLE {
		t.Fatalf("resumed incremental result %+v != reference %+v", res2, refRes)
	}
}

// TestResumeRejectsMismatches locks in the config/data verification: resume
// must refuse a different config, phase, or dataset with a clear error.
func TestResumeRejectsMismatches(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 100)
	cfg := tinyConfig(train.TauTop, true)
	cfg.Epochs = 4
	cfg.Seed = 3
	tensor.SetWorkers(1)
	st := runInterrupted(t, cfg, train, valid, 2)

	// Wrong phase.
	m, err := RestoreTrainer(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResumeIncrementalTrain(train, valid, st); err == nil {
		t.Fatal("resume accepted a train-phase checkpoint for incremental")
	}

	// Wrong config (different worker count would not be bit-identical).
	m2, err := RestoreTrainer(st)
	if err != nil {
		t.Fatal(err)
	}
	m2.Cfg.Workers = 7
	if _, err := m2.ResumeTrain(train, valid, st); err == nil {
		t.Fatal("resume accepted a mismatched config")
	}

	// Wrong dataset.
	otherTrain, otherValid, _, _ := hammingFixture(t, 90)
	m3, err := RestoreTrainer(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m3.ResumeTrain(otherTrain, otherValid, st); err == nil {
		t.Fatal("resume accepted different training data")
	}

	// Truncated state.
	empty := *st
	empty.Opt = nil
	if _, err := m3.ResumeTrain(train, valid, &empty); err == nil {
		t.Fatal("resume accepted a state with no optimizer moments")
	}
}

// TestResumeRejectsMalformedState: a train-phase state whose ω or previous
// per-distance vector has the wrong length, or whose best-validation
// snapshot is shaped unlike the weights, is refused before any training —
// including a state already at its last epoch, which used to panic in the
// final best-restore instead. So are an RNG position no run could reach
// (the skip would run for hours), a batch size below one (the epoch loop
// would never advance) and a negative epoch.
func TestResumeRejectsMalformedState(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 100)
	cfg := tinyConfig(train.TauTop, true)
	cfg.Epochs = 3
	cfg.Seed = 4
	tensor.SetWorkers(1)
	st := runInterrupted(t, cfg, train, valid, 2)
	if st.Best == nil {
		t.Fatal("checkpoint has no best-validation snapshot")
	}

	misshapenBest := *st.Best
	misshapenBest.Values = append([][]float64(nil), st.Best.Values...)
	misshapenBest.Values[1] = misshapenBest.Values[1][1:]
	cases := map[string]func(*TrainerState){
		"short omega":        func(s *TrainerState) { s.Omega = s.Omega[:len(s.Omega)-1] },
		"long omega":         func(s *TrainerState) { s.Omega = append(s.Omega, 0.5) },
		"no prev per-dist":   func(s *TrainerState) { s.PrevPerDist = nil },
		"misshapen best":     func(s *TrainerState) { s.Best = &misshapenBest },
		"misshapen best end": func(s *TrainerState) { s.Best = &misshapenBest; s.Epoch = cfg.Epochs },
		"best missing param": func(s *TrainerState) { s.Best = &nn.Snapshot{Values: s.Best.Values[1:]} },
		"lying rng position": func(s *TrainerState) { s.RNGDraws = 1 << 62 },
		"zero batch":         func(s *TrainerState) { s.Cfg.Batch = 0 },
		"negative epoch":     func(s *TrainerState) { s.Epoch = -1 },
	}
	for name, corrupt := range cases {
		bad := *st
		corrupt(&bad)
		m, err := RestoreTrainer(&bad)
		if err != nil {
			t.Fatal(err)
		}
		before := saveBytes(t, m)
		if _, err := m.ResumeTrain(train, valid, &bad); err == nil {
			t.Errorf("%s: resume accepted the state", name)
		}
		if !bytes.Equal(before, saveBytes(t, m)) {
			t.Errorf("%s: a refused resume changed the weights", name)
		}
	}
}
