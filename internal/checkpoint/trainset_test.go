package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/tensor"
)

// cloneSet deep-copies a train set so a hostile edit never reaches the
// fixture it came from.
func cloneSet(ts *core.TrainSet) *core.TrainSet {
	return &core.TrainSet{X: ts.X.Clone(), Labels: ts.Labels.Clone(),
		TauTop: ts.TauTop, P: append([]float64(nil), ts.P...)}
}

// hostileSplit is a CRC-valid train-set frame whose shapes lie; name says
// what is wrong with it.
type hostileSplit struct {
	name string
	raw  []byte
}

func hostileSplits(tb testing.TB) []hostileSplit {
	tb.Helper()
	train, valid := fixture(tb, 60)
	lie := func(edit func(tr, va **core.TrainSet)) []byte {
		tr, va := cloneSet(train), cloneSet(valid)
		edit(&tr, &va)
		return trainSetBytes(tb, tr, va)
	}
	return []hostileSplit{
		{"X rows exceed data", lie(func(tr, va **core.TrainSet) {
			(*tr).X = &tensor.Matrix{Rows: 50, Cols: 8, Data: make([]float64, 8)}
			*va = nil
		})},
		{"X rows inflated", lie(func(tr, _ **core.TrainSet) { (*tr).X.Rows++ })},
		{"negative shape", lie(func(tr, _ **core.TrainSet) { (*tr).X.Rows, (*tr).X.Cols = -1, -len((*tr).X.Data) })},
		{"rows×cols overflows to zero", lie(func(tr, _ **core.TrainSet) {
			(*tr).X = &tensor.Matrix{Rows: 1 << 59, Cols: 32}
		})},
		{"labels short a row", lie(func(tr, _ **core.TrainSet) {
			(*tr).Labels = (*tr).Labels.RowSlice(0, (*tr).Labels.Rows-1).Clone()
		})},
		{"TauTop beyond labels", lie(func(tr, _ **core.TrainSet) { (*tr).TauTop++ })},
		{"negative TauTop", lie(func(tr, va **core.TrainSet) { (*tr).TauTop, (*va).TauTop = -1, -1 })},
		{"short P", lie(func(tr, _ **core.TrainSet) { (*tr).P = (*tr).P[:len((*tr).P)-1] })},
		{"no validation split", lie(func(_, va **core.TrainSet) { *va = nil })},
		{"validation X rows inflated", lie(func(_, va **core.TrainSet) { (*va).X.Rows++ })},
		{"validation feature width differs", lie(func(_, va **core.TrainSet) {
			(*va).X = &tensor.Matrix{Rows: (*va).X.Rows, Cols: 8, Data: make([]float64, (*va).X.Rows*8)}
		})},
		{"validation TauTop differs", lie(func(_, va **core.TrainSet) {
			v := *va
			v.TauTop--
			v.P = v.P[:v.TauTop+1]
			v.Labels = &tensor.Matrix{Rows: v.Labels.Rows, Cols: v.TauTop + 1,
				Data: make([]float64, v.Labels.Rows*(v.TauTop+1))}
		})},
	}
}

// trainSetBytes frames a split through the production writer.
func trainSetBytes(tb testing.TB, train, valid *core.TrainSet) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "train.tset")
	if err := SaveTrainSet(path, train, valid); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// loadTrainSetBytes is LoadTrainSet on a file holding raw.
func loadTrainSetBytes(tb testing.TB, raw []byte) (train, valid *core.TrainSet, err error) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "train.tset")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		tb.Fatal(err)
	}
	return LoadTrainSet(path)
}

// The live model a staged split retrains in these tests is shaped like the
// fixture: 32 features, τmax 12.
const liveInDim, liveTauMax = 32, 12

// retrainOneEpoch runs what the autopilot runs on a staged split it
// accepted: a forced IncrementalTrain of a model of the split's feature
// width, stopped after its first epoch.
func retrainOneEpoch(train, valid *core.TrainSet) core.IncrementalResult {
	cfg := tinyConfig(liveTauMax)
	cfg.Stop = func() bool { return true }
	return core.New(cfg, train.X.Cols).IncrementalTrain(train, valid, 0)
}

// TestLoadTrainSetRejectsLyingShapes: a CRC-valid split whose shapes lie is
// ErrCorrupt. Accepting one hands IncrementalTrain slices shorter than their
// claimed shapes, and the retrain panics.
func TestLoadTrainSetRejectsLyingShapes(t *testing.T) {
	for _, h := range hostileSplits(t) {
		tr, va, err := loadTrainSetBytes(t, h.raw)
		if errors.Is(err, ErrCorrupt) {
			continue
		}
		if err == nil {
			retrainOneEpoch(tr, va)
		}
		t.Errorf("%s: got %v, want ErrCorrupt", h.name, err)
	}
}

// reseal rewrites a frame's length and CRC to match its payload, so a
// mutated payload reaches the gob decoder and the shape checks instead of
// failing the checksum.
func reseal(raw []byte) []byte {
	if len(raw) < headerSize {
		return raw
	}
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(out[9:17], uint64(len(out)-headerSize))
	binary.LittleEndian.PutUint32(out[17:21], crc32.ChecksumIEEE(out[headerSize:]))
	return out
}

// FuzzLoadTrainSet: any staged train-set file either fails to load or loads
// into a split a retrain runs on without panicking. Each input is loaded as
// it is and resealed (reseal); each accepted split takes the autopilot's
// path: one whose feature width differs from the live model's is discarded,
// anything else gets a one-epoch IncrementalTrain. The seed corpus in
// testdata/fuzz/FuzzLoadTrainSet holds the staged split of the 60-record
// fixture, a truncated copy, and a CRC-valid copy whose X claims 50 rows
// over 8 values with no validation split; the hostile splits above are
// seeds too.
func FuzzLoadTrainSet(f *testing.F) {
	for _, h := range hostileSplits(f) {
		f.Add(h.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, in := range [][]byte{raw, reseal(raw)} {
			tr, va, err := loadTrainSetBytes(t, in)
			if err != nil || tr.X.Cols != liveInDim {
				continue
			}
			retrainOneEpoch(tr, va)
		}
	})
}
