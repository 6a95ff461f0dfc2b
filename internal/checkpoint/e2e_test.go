package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/feature"
	"cardnet/internal/simselect"
	"cardnet/internal/tensor"
)

// fixture builds a small Hamming workload with exact labels (mirrors the
// internal/core test fixture).
func fixture(t testing.TB, n int) (*core.TrainSet, *core.TrainSet) {
	t.Helper()
	recs := dataset.BinaryCodes(n, 32, 4, 0.08, 5)
	ext := feature.NewHammingExtractor(32, 12, 12)
	ix := simselect.NewHammingIndex(recs)
	grid := dataset.ThresholdGrid(12, 12)
	counts := func(q dist.BitVector, g []float64) []int {
		cum := ix.CountAtEach(q, 12)
		out := make([]int, len(g))
		for i, theta := range g {
			out[i] = cum[int(theta)]
		}
		return out
	}
	queries := recs[:n/2]
	train, err := core.BuildTrainSet[dist.BitVector](ext, queries[:len(queries)*4/5], grid, counts)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := core.BuildTrainSet[dist.BitVector](ext, queries[len(queries)*4/5:], grid, counts)
	if err != nil {
		t.Fatal(err)
	}
	return train, valid
}

func tinyConfig(tauMax int) core.Config {
	cfg := core.DefaultConfig(tauMax)
	cfg.VAEHidden = []int{16}
	cfg.VAELatent = 6
	cfg.VAEEpochs = 3
	cfg.PhiHidden = []int{24, 16}
	cfg.ZDim = 12
	cfg.Epochs = 6
	cfg.Batch = 16
	cfg.Accel = true
	cfg.Seed = 21
	return cfg
}

func modelBytes(t *testing.T, m *core.Model) []byte {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestKillAndResumeThroughStore is the end-to-end fault-tolerance contract:
// a training run checkpointed through the Checkpointer, killed after epoch 3
// (simulated SIGTERM via RequestStop), and resumed from the on-disk store in
// a fresh process image produces a bit-identical model to an uninterrupted
// run, even with the newest on-disk checkpoint corrupted by a torn write.
func TestKillAndResumeThroughStore(t *testing.T) {
	tensor.SetWorkers(1)
	train, valid := fixture(t, 120)
	cfg := tinyConfig(train.TauTop)
	dir := t.TempDir()

	// Reference: uninterrupted run.
	ref := core.New(cfg, train.X.Cols)
	refRes := ref.Train(train, valid)
	refBytes := modelBytes(t, ref)

	// "Process 1": checkpoint every epoch, SIGTERM during epoch 3.
	store, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(store, 1)
	run1 := cfg
	run1.Hook = ck.Hook(func(ev core.TrainEvent) {
		if ev.Epoch == 3 {
			ck.RequestStop() // signal arrives mid-epoch; trainer stops at the boundary
		}
	})
	run1.Stop = ck.StopRequested
	m1 := core.New(run1, train.X.Cols)
	res1 := m1.Train(train, valid)
	if !res1.Interrupted || res1.Epochs != 3 {
		t.Fatalf("run 1 not interrupted at epoch 3: %+v", res1)
	}
	if ck.Err() != nil {
		t.Fatal(ck.Err())
	}
	if ck.Saves() != 3 {
		t.Fatalf("saves = %d, want 3", ck.Saves())
	}

	// Corrupt the newest checkpoint: resume must fall back to epoch 2's.
	seqs, _ := store.Seqs()
	newest := seqs[len(seqs)-1]
	raw, _ := os.ReadFile(filepath.Join(dir, "ckpt-00000003.ckpt"))
	os.WriteFile(filepath.Join(dir, "ckpt-00000003.ckpt"), raw[:len(raw)/2], 0o644)

	// "Process 2": fresh store handle, load latest usable, resume.
	store2, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, seq, skipped, err := LoadLatest(store2)
	if err != nil {
		t.Fatal(err)
	}
	if seq != newest-1 || len(skipped) != 1 || skipped[0] != newest {
		t.Fatalf("LoadLatest seq=%d skipped=%v, want seq=%d skipped=[%d]", seq, skipped, newest-1, newest)
	}
	if st.Epoch != 2 {
		t.Fatalf("resumed from epoch %d, want 2", st.Epoch)
	}

	m2, err := core.RestoreTrainer(st)
	if err != nil {
		t.Fatal(err)
	}
	ck2 := NewCheckpointer(store2, 1)
	m2.Cfg.Hook = ck2.Hook(nil)
	m2.Cfg.Stop = ck2.StopRequested
	res2, err := m2.ResumeTrain(train, valid, st)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Err() != nil {
		t.Fatal(ck2.Err())
	}
	if res2.Epochs != refRes.Epochs || res2.BestValidMSLE != refRes.BestValidMSLE {
		t.Fatalf("resumed result %+v != reference %+v", res2, refRes)
	}
	if !bytes.Equal(refBytes, modelBytes(t, m2)) {
		t.Fatal("kill-and-resume model differs from uninterrupted run")
	}

	// Publication: the finished model goes out through the atomic writer and
	// round-trips exactly.
	modelPath := filepath.Join(dir, "model.gob")
	if err := SaveModel(modelPath, m2); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, modelBytes(t, loaded)) {
		t.Fatal("published model differs after load")
	}
}

// TestLoadModelRejectsTornFile: a simulated crash during model save must
// never leave a file the loader accepts silently.
func TestLoadModelRejectsTornFile(t *testing.T) {
	tensor.SetWorkers(1)
	train, _ := fixture(t, 60)
	cfg := tinyConfig(train.TauTop)
	cfg.Epochs = 1
	m := core.New(cfg, train.X.Cols)
	m.Train(train, nil)

	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}

	// Torn mid-payload: CRC catches it.
	raw, _ := os.ReadFile(path)
	for _, cut := range []int{len(raw) / 2, headerSize + 1, 10, 3} {
		os.WriteFile(path, raw[:cut], 0o644)
		if _, err := LoadModel(path); err == nil {
			t.Fatalf("LoadModel accepted a file truncated to %d bytes", cut)
		}
	}

	// Legacy (unframed gob) model files still load.
	legacy := filepath.Join(dir, "legacy.gob")
	if err := os.WriteFile(legacy, gobBytes(t, wireOf(m)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(legacy); err != nil {
		t.Fatalf("legacy model file rejected: %v", err)
	}

	// A trainer checkpoint is refused with a kind error, not decoded.
	ckpt := filepath.Join(dir, "trainer.gob")
	if err := WriteFileAtomic(ckpt, KindTrainer, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(ckpt); err == nil {
		t.Fatal("LoadModel accepted a trainer checkpoint")
	}
}

// TestCheckpointerInterval: only every-N epochs are persisted, plus the
// early-stop epoch.
func TestCheckpointerInterval(t *testing.T) {
	tensor.SetWorkers(1)
	train, valid := fixture(t, 100)
	cfg := tinyConfig(train.TauTop)
	cfg.Epochs = 6
	store, err := OpenStore(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(store, 2)
	cfg.Hook = ck.Hook(nil)
	cfg.Stop = ck.StopRequested
	m := core.New(cfg, train.X.Cols)
	res := m.Train(train, valid)
	if res.Interrupted {
		t.Fatalf("unexpected interruption: %+v", res)
	}
	if ck.Err() != nil {
		t.Fatal(ck.Err())
	}
	if ck.Saves() != 3 { // epochs 2, 4, 6
		t.Fatalf("saves = %d, want 3", ck.Saves())
	}
	st, _, _, err := LoadLatest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 6 || st.Phase != core.PhaseTrain {
		t.Fatalf("latest checkpoint epoch=%d phase=%q", st.Epoch, st.Phase)
	}
}

// TestLoadedModelHoldsNoGradients pins what a served model costs in memory: a
// model from LoadModel holds its weights and no gradient buffers. Retraining
// it (IncrementalTrain, as a refresh round or the autopilot does) allocates
// them where training first needs them and gives the bits of retraining the
// in-memory original, whose buffers its first training left at +0. Both
// architectures.
func TestLoadedModelHoldsNoGradients(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	train, valid := fixture(t, 120)
	for _, accel := range []bool{true, false} {
		cfg := tinyConfig(train.TauTop)
		cfg.Accel, cfg.Epochs = accel, 2
		orig := core.New(cfg, train.X.Cols)
		orig.Train(train, valid)
		path := filepath.Join(t.TempDir(), "m.gob")
		if err := SaveModel(path, orig); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadModel(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range loaded.Params() {
			if p.Grad != nil {
				t.Fatalf("accel=%v: loaded param %s holds %d gradient values", accel, p.Name, len(p.Grad))
			}
		}
		before := modelBytes(t, loaded)
		orig.IncrementalTrain(train, valid, 0)
		loaded.IncrementalTrain(train, valid, 0)
		if bytes.Equal(modelBytes(t, loaded), before) {
			t.Fatalf("accel=%v: the retrain left every weight as it was", accel)
		}
		for _, p := range loaded.Params() {
			if len(p.Grad) != len(p.Value) {
				t.Fatalf("accel=%v: retrained param %s has %d gradient values for %d weights", accel, p.Name, len(p.Grad), len(p.Value))
			}
		}
		if !bytes.Equal(modelBytes(t, orig), modelBytes(t, loaded)) {
			t.Fatalf("accel=%v: retraining the loaded model changed its bits", accel)
		}
	}
}
