package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// wireModel mirrors core.Model.Save's gob layout (gob matches fields by
// name), so tests can encode configs that do not match their weights.
type wireModel struct {
	Cfg    core.Config
	InDim  int
	TauTop int
	Snap   *nn.Snapshot
}

// hostileModel is a framed model file whose CRC is valid but whose config
// lies about the weights; name says what is wrong with it.
type hostileModel struct {
	name string
	raw  []byte
}

func hostileModels(tb testing.TB) []hostileModel {
	tb.Helper()
	m := core.New(tinyConfig(4), 8)
	lie := func(edit func(*wireModel)) []byte {
		st := wireModel{Cfg: m.Cfg, InDim: m.InDim, TauTop: m.TauTop, Snap: nn.TakeSnapshot(m.Params())}
		edit(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			tb.Fatal(err)
		}
		return frameBytes(tb, buf.Bytes())
	}
	return []hostileModel{
		{"negative TauMax", lie(func(st *wireModel) { st.Cfg.TauMax = -5 })},
		{"huge TauMax", lie(func(st *wireModel) { st.Cfg.TauMax = 1 << 40 })},
		{"negative PhiHidden", lie(func(st *wireModel) { st.Cfg.PhiHidden = []int{24, -16} })},
		{"lying PhiHidden", lie(func(st *wireModel) { st.Cfg.PhiHidden = []int{24, 17} })},
		{"huge PhiHidden", lie(func(st *wireModel) { st.Cfg.PhiHidden = []int{24, 1 << 40} })},
		{"no hidden layers", lie(func(st *wireModel) { st.Cfg.PhiHidden = nil })},
		{"zero InDim", lie(func(st *wireModel) { st.InDim = 0 })},
		{"no snapshot", lie(func(st *wireModel) { st.Snap = nil })},
	}
}

// frameBytes wraps payload in a model frame through the production writer.
func frameBytes(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "model.gob")
	if err := WriteFileAtomic(path, KindModel, payload); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestLoadModelRejectsHostileConfig: a CRC-valid model whose config
// disagrees with its weights is ErrCorrupt — framed or bare gob — before
// any config-sized allocation.
func TestLoadModelRejectsHostileConfig(t *testing.T) {
	for _, h := range hostileModels(t) {
		if _, err := decodeModel(h.name, h.raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (framed): got %v, want ErrCorrupt", h.name, err)
		}
		if _, err := decodeModel(h.name, h.raw[headerSize:]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (legacy gob): got %v, want ErrCorrupt", h.name, err)
		}
	}
}

// FuzzLoadModel: any model file bytes load into a usable model or fail with
// an error, never a panic or an unbounded allocation. Seeds: a valid framed
// and legacy model, truncated and bit-flipped copies, and the CRC-valid
// files whose config lies about their weights.
func FuzzLoadModel(f *testing.F) {
	var buf bytes.Buffer
	if err := core.New(tinyConfig(4), 8).Save(&buf); err != nil {
		f.Fatal(err)
	}
	legacy := buf.Bytes()
	framed := frameBytes(f, legacy)
	f.Add(framed)
	f.Add(legacy)
	f.Add(framed[:len(framed)/2])
	f.Add(legacy[:len(legacy)/2])
	for _, raw := range [][]byte{framed, legacy} {
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)*2/3] ^= 0x10
		f.Add(flipped)
	}
	for _, h := range hostileModels(f) {
		f.Add(h.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeModel("fuzz", raw)
		if err != nil {
			return
		}
		if curve := m.EstimateAllTausBatch(tensor.NewMatrix(1, m.InDim)); curve.Cols != m.Cfg.TauMax+1 {
			t.Fatalf("curve has %d points, want τmax+1 = %d", curve.Cols, m.Cfg.TauMax+1)
		}
	})
}

// FuzzRestoreTrainer: any trainer-state bytes either resume into a result or
// fail with an error, never a panic. Each input takes the path a resume
// takes — the gob decode LoadLatest applies, core.RestoreTrainer, then
// ResumeTrain (ResumeIncrementalTrain for an incremental state) — on the
// 60-record fixture below, with a Stop that ends training after at most one
// epoch. The seed corpus in testdata/fuzz/FuzzRestoreTrainer holds real
// epoch-1 checkpoints of a CardNet-A run on that fixture (τmax 2, VAE hidden
// {2} and latent 1, Φ′ hidden {3}, ZDim 2, EmbDim 1, batch 8, seed 21), one
// per phase, plus copies of the train-phase one with a short ω and with a
// best-validation snapshot missing a value.
func FuzzRestoreTrainer(f *testing.F) {
	train, valid := fixture(f, 60)
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := decodeTrainerState(raw)
		if err != nil {
			return
		}
		m, err := core.RestoreTrainer(st)
		if err != nil {
			return
		}
		m.Cfg.Stop = func() bool { return true }
		if st.Phase == core.PhaseIncremental {
			_, err = m.ResumeIncrementalTrain(train, valid, st)
		} else {
			_, err = m.ResumeTrain(train, valid, st)
		}
		if err == nil && m.EstimateAllTausBatch(tensor.NewMatrix(1, m.InDim)).Cols != m.Cfg.TauMax+1 {
			t.Fatal("resumed model's curve has the wrong length")
		}
	})
}
