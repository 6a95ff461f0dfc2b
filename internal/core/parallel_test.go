package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// saveBytes serializes a model for bit-level comparison.
func saveBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainWorkersOneMatchesDefault pins the sequential contract: Workers=1
// and the zero value run the identical code path, so their trained models are
// bit-equal.
func TestTrainWorkersOneMatchesDefault(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 160)
	cfg := tinyConfig(12, false)
	cfg.Epochs = 3
	cfg.Seed = 7

	cfgOne := cfg
	cfgOne.Workers = 1

	a := New(cfg, train.X.Cols)
	b := New(cfgOne, train.X.Cols)
	a.Train(train, valid)
	b.Train(train, valid)
	// Save bytes include the Config (whose Workers fields differ by
	// construction), so compare the learned parameters bit-for-bit instead.
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Value {
			if math.Float64bits(pa[i].Value[j]) != math.Float64bits(pb[i].Value[j]) {
				t.Fatalf("param %s[%d]: Workers=0 %v vs Workers=1 %v",
					pa[i].Name, j, pa[i].Value[j], pb[i].Value[j])
			}
		}
	}
}

// TestTrainWorkersReproducible checks that a fixed Workers>1 run is a pure
// function of the seed: shard noise streams are seeded in shard order and
// gradients reduce in shard order, so goroutine scheduling must not leak into
// the trained bits. Running it under -race also stress-tests the shard
// engine's memory safety (see the race-train make target).
func TestTrainWorkersReproducible(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 160)
	for _, accel := range []bool{false, true} {
		cfg := tinyConfig(12, accel)
		cfg.Epochs = 3
		cfg.Seed = 11
		cfg.Workers = 3

		a := New(cfg, train.X.Cols)
		b := New(cfg, train.X.Cols)
		resA := a.Train(train, valid)
		resB := b.Train(train, valid)
		if resA.BestValidMSLE != resB.BestValidMSLE {
			t.Fatalf("accel=%v: valid MSLE %v vs %v", accel, resA.BestValidMSLE, resB.BestValidMSLE)
		}
		if !bytes.Equal(saveBytes(t, a), saveBytes(t, b)) {
			t.Fatalf("accel=%v: two Workers=3 runs diverged", accel)
		}
	}
}

// TestTrainBatchParallelCloseToSequential compares one optimizer step at
// Workers=4 against Workers=1 on a VAE-ablated model (no noise, so the only
// difference is floating-point reassociation across shard boundaries). The
// parallel gradients must match the sequential ones to near machine
// precision.
func TestTrainBatchParallelCloseToSequential(t *testing.T) {
	train, _, _, _ := hammingFixture(t, 160)
	cfg := tinyConfig(12, false)
	cfg.VAELatent = 0 // deterministic forward: no reparameterization noise
	cfg.Seed = 3

	cfgPar := cfg
	cfgPar.Workers = 4

	seq := New(cfg, train.X.Cols)
	par := New(cfgPar, train.X.Cols)

	top := train.TauTop
	if top > cfg.TauMax {
		top = cfg.TauMax
	}
	omega := make([]float64, cfg.TauMax+1)
	for i := 0; i <= top; i++ {
		omega[i] = 1 / float64(top+1)
	}
	b := 32
	xb := train.X.RowSlice(0, b)
	lb := train.Labels.RowSlice(0, b)

	lossSeq := seq.trainBatch(seq.shardCtxs(b), xb, lb, train.P, omega, top, nn.NewAdam(seq.Params(), cfg.LR), rand.New(rand.NewSource(1)))
	lossPar := par.trainBatch(par.shardCtxs(b), xb, lb, train.P, omega, top, nn.NewAdam(par.Params(), cfg.LR), rand.New(rand.NewSource(1)))

	if math.Abs(lossSeq-lossPar) > 1e-9*(1+math.Abs(lossSeq)) {
		t.Fatalf("loss diverged: seq=%v par=%v", lossSeq, lossPar)
	}
	ps, pp := seq.Params(), par.Params()
	for i := range ps {
		for j := range ps[i].Value {
			a, b := ps[i].Value[j], pp[i].Value[j]
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("param %s[%d]: seq=%v par=%v", ps[i].Name, j, a, b)
			}
		}
	}
}

// TestBatchEstimatorsShardedBitIdentical forces the batch estimator onto the
// parallel row-sharded path and checks every output element against the
// per-sample estimator: inference is row-independent, so sharding must not
// change a single bit.
func TestBatchEstimatorsShardedBitIdentical(t *testing.T) {
	train, _, _, _ := hammingFixture(t, 200)
	cfg := tinyConfig(12, false)
	m := New(cfg, train.X.Cols)

	prev := tensor.SetWorkers(4)
	defer tensor.SetWorkers(prev)

	n := 64 // 4 shards of 16 rows: wide enough to clear estMinShardRows
	xs := train.X.RowSlice(0, n)
	all := m.EstimateAllTausBatch(xs)

	for e := 0; e < n; e++ {
		want := estimateRow(m, xs.Row(e))
		for i, v := range all.Row(e) {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("row %d tau %d: batch %v, per-sample %v", e, i, v, want[i])
			}
		}
	}
}

// TestUpdateOmegaFallsBackToUniform covers the dynamic-training weight
// update: mass moves to regressing distances, and an epoch where nothing
// regressed restores uniform weights instead of zeroing ω.
func TestUpdateOmegaFallsBackToUniform(t *testing.T) {
	top := 3
	omega := make([]float64, 6)
	deltas := make([]float64, 6)

	// Distances 1 and 3 regressed: ω concentrates there, proportional.
	prev := []float64{1, 1, 1, 1, 0, 0}
	cur := []float64{0.5, 2, 1, 4, 0, 0}
	updateOmega(omega, deltas, cur, prev, top)
	want := []float64{0, 0.25, 0, 0.75}
	for i, w := range want {
		if math.Abs(omega[i]-w) > 1e-12 {
			t.Fatalf("omega[%d]=%v, want %v", i, omega[i], w)
		}
	}
	if omega[4] != 0 || omega[5] != 0 {
		t.Fatalf("omega above top mutated: %v", omega)
	}

	// Nothing regressed: uniform fallback, not all-zero.
	improved := []float64{0.5, 0.5, 0.5, 0.5, 0, 0}
	updateOmega(omega, deltas, improved, prev, top)
	var sum float64
	for i := 0; i <= top; i++ {
		if math.Abs(omega[i]-1/float64(top+1)) > 1e-12 {
			t.Fatalf("omega[%d]=%v, want uniform %v", i, omega[i], 1/float64(top+1))
		}
		sum += omega[i]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("omega sums to %v", sum)
	}
}

// TestIncrementalTrainWorkersReproducible covers the update path (Section 8)
// at Workers>1: two identically-seeded incremental runs from identical
// starting weights must agree bit-for-bit.
func TestIncrementalTrainWorkersReproducible(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 160)
	cfg := tinyConfig(12, false)
	cfg.Epochs = 2
	cfg.Seed = 5
	cfg.Workers = 2

	base := New(cfg, train.X.Cols)
	base.Train(train, valid)
	var buf bytes.Buffer
	if err := base.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Perturb labels so IncrementalTrain does not skip.
	for i := range train.Labels.Data {
		train.Labels.Data[i] *= 3
	}
	for i := range valid.Labels.Data {
		valid.Labels.Data[i] *= 3
	}

	run := func() []byte {
		m, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		m.Cfg.Epochs = 1 // cap the stabilization loop for test speed
		m.IncrementalTrain(train, valid, 1e-12)
		return saveBytes(t, m)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two Workers=2 incremental runs diverged")
	}
}
