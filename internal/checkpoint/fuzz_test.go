package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// wireModel mirrors the gob layout core.LoadGob reads (gob matches fields
// by name), so tests can write the files earlier builds wrote and encode
// configs that do not match their weights.
type wireModel struct {
	Cfg    core.Config
	InDim  int
	TauTop int
	Snap   *nn.Snapshot
}

// wireHeader mirrors the header of core.Model.Encode's layout.
type wireHeader struct {
	Cfg    core.Config
	InDim  int
	TauTop int
}

// wireOf is m's content as the gob layout carries it.
func wireOf(m *core.Model) wireModel {
	return wireModel{Cfg: m.Cfg, InDim: m.InDim, TauTop: m.TauTop, Snap: nn.TakeSnapshot(m.Params())}
}

// gobBytes is st in the gob layout: a version-1 payload or a bare legacy
// model file.
func gobBytes(tb testing.TB, st wireModel) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// layoutBytes is st in core.Model.Encode's layout, whose config may lie
// about the weights that follow it.
func layoutBytes(tb testing.TB, st wireModel) []byte {
	tb.Helper()
	h := wireHeader{Cfg: st.Cfg, InDim: st.InDim, TauTop: st.TauTop}
	var vals []float64
	if st.Snap != nil {
		for _, v := range st.Snap.Values {
			vals = append(vals, v...)
		}
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, 4))
	if err := gob.NewEncoder(&buf).Encode(&h); err != nil {
		tb.Fatal(err)
	}
	out := buf.Bytes()
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// hostileModel is a model whose config lies about its weights, in both
// layouts; name says what is wrong with it.
type hostileModel struct {
	name        string
	gob, layout []byte // payloads: the gob layout and Encode's
}

func hostileModels(tb testing.TB) []hostileModel {
	tb.Helper()
	m := core.New(tinyConfig(4), 8)
	lie := func(name string, edit func(*wireModel)) hostileModel {
		st := wireOf(m)
		edit(&st)
		return hostileModel{name, gobBytes(tb, st), layoutBytes(tb, st)}
	}
	return []hostileModel{
		lie("negative TauMax", func(st *wireModel) { st.Cfg.TauMax = -5 }),
		lie("huge TauMax", func(st *wireModel) { st.Cfg.TauMax = 1 << 40 }),
		lie("negative PhiHidden", func(st *wireModel) { st.Cfg.PhiHidden = []int{24, -16} }),
		lie("lying PhiHidden", func(st *wireModel) { st.Cfg.PhiHidden = []int{24, 17} }),
		lie("huge PhiHidden", func(st *wireModel) { st.Cfg.PhiHidden = []int{24, 1 << 40} }),
		lie("no hidden layers", func(st *wireModel) { st.Cfg.PhiHidden = nil }),
		lie("zero InDim", func(st *wireModel) { st.InDim = 0 }),
		lie("no snapshot", func(st *wireModel) { st.Snap = nil }),
	}
}

// frameBytes wraps payload in a model frame of the given version through
// the production writer.
func frameBytes(tb testing.TB, version byte, payload []byte) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "model.gob")
	if err := writeFrame(path, KindModel, version, payload); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestLoadModelRejectsHostileConfig: a CRC-valid model whose config
// disagrees with its weights is ErrCorrupt — in a version-2 frame, a
// version-1 frame or a bare gob file — before any config-sized allocation.
func TestLoadModelRejectsHostileConfig(t *testing.T) {
	for _, h := range hostileModels(t) {
		if _, err := decodeModel(h.name, frameBytes(t, modelVersion, h.layout)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (version 2): got %v, want ErrCorrupt", h.name, err)
		}
		if _, err := decodeModel(h.name, frameBytes(t, fileVersion, h.gob)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (version 1): got %v, want ErrCorrupt", h.name, err)
		}
		if _, err := decodeModel(h.name, h.gob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (legacy gob): got %v, want ErrCorrupt", h.name, err)
		}
	}

	// The gob layout carries each tensor's length: moving one weight into
	// the next tensor keeps the total the config implies but not the shapes.
	st := wireOf(core.New(tinyConfig(4), 8))
	v := st.Snap.Values
	v[0], v[1] = v[0][:len(v[0])-1], append(v[0][len(v[0])-1:], v[1]...)
	moved := gobBytes(t, st)
	for _, raw := range [][]byte{frameBytes(t, fileVersion, moved), moved} {
		if _, err := decodeModel("moved weight", raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("moved weight: got %v, want ErrCorrupt", err)
		}
	}
}

// layoutCase is a CRC-valid version-2 model frame that probes the checks on
// the weight section; ok says whether it must load.
type layoutCase struct {
	name string
	raw  []byte
	ok   bool
}

// nanBits are the weights the NaN case plants: a quiet NaN with a payload and
// a signaling NaN, which must both survive a load bit for bit.
var nanBits = []uint64{0x7ff8_dead_beef_0001, 0x7ff0_0000_0000_0001}

func layoutCases(tb testing.TB) []layoutCase {
	tb.Helper()
	m := core.New(tinyConfig(4), 8)
	good := layoutBytes(tb, wireOf(m))
	// lie is m's weights under a config edited by edit.
	lie := func(edit func(cfg *core.Config)) []byte {
		st := wireOf(m)
		edit(&st.Cfg)
		return layoutBytes(tb, st)
	}
	weights := nn.NumParams(m.Params())

	noEmb := tinyConfig(4)
	noEmb.EmbDim = 0 // the distance embedding E has no values
	nan := core.New(tinyConfig(4), 8)
	for i, b := range nanBits {
		nan.Params()[i].Value[0] = math.Float64frombits(b)
	}
	encode := func(m *core.Model) []byte {
		b, err := m.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}

	n := 4 + binary.LittleEndian.Uint32(good)
	stray := binary.LittleEndian.AppendUint32(nil, n-4+8)
	stray = append(append(append(stray, good[4:n]...), make([]byte, 8)...), good[n:]...)

	frame := func(payload []byte) []byte { return frameBytes(tb, modelVersion, payload) }
	return []layoutCase{
		{"valid", frame(good), true},
		{"truncated weight section", frame(good[:len(good)-8]), false},
		{"weight section one byte short", frame(good[:len(good)-1]), false},
		{"trailing bytes after the weights", frame(append(append([]byte(nil), good...), make([]byte, 8)...)), false},
		{"config implies more weights than the section holds", frame(lie(func(c *core.Config) { c.ZDim++ })), false},
		{"config implies fewer weights than the section holds", frame(lie(func(c *core.Config) { c.ZDim-- })), false},
		// Each dimension fits the section, their product does not.
		{"config dimensions multiply past the section", frame(lie(func(c *core.Config) {
			c.TauMax, c.EmbDim = weights-1, weights-1
		})), false},
		{"stray bytes after the header", frame(stray), false},
		{"header length past the payload", frame(binary.LittleEndian.AppendUint32(nil, 1<<20)), false},
		{"zero-length parameter", frame(encode(core.New(noEmb, 8))), true},
		{"NaN weights", frame(encode(nan)), true},
	}
}

// TestLoadModelLayoutChecks: the version-2 loader refuses, as ErrCorrupt, a
// weight section that is short, long or not the size the header's config
// implies, and loads a zero-length parameter and NaN weights. NaN bits
// come back exactly, and infer.Lower still refuses to compile them.
func TestLoadModelLayoutChecks(t *testing.T) {
	for _, c := range layoutCases(t) {
		m, err := decodeModel(c.name, c.raw)
		if !c.ok {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: got %v, want ErrCorrupt", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.name != "NaN weights" {
			continue
		}
		for i, b := range nanBits {
			if got := math.Float64bits(m.Params()[i].Value[0]); got != b {
				t.Errorf("NaN weight %d loaded as %#x, want %#x", i, got, b)
			}
		}
		for _, tier := range []infer.Precision{infer.PrecisionF64, infer.PrecisionF32} {
			if _, err := infer.Lower(m, tier); err == nil {
				t.Errorf("infer.Lower compiled NaN weights at tier %s", tier)
			}
		}
	}
}

// FuzzLoadModel: any model file bytes load into a usable model or fail with
// an error, never a panic or an unbounded allocation. Seeds: a valid model
// in a version-2 frame and as bare legacy gob, truncated and bit-flipped
// copies, the files whose config lies about their weights (version-1 frames,
// then version-2), the committed version-1 file, and the weight-section
// cases of layoutCases.
func FuzzLoadModel(f *testing.F) {
	m := core.New(tinyConfig(4), 8)
	b, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	framed := frameBytes(f, modelVersion, b)
	legacy := gobBytes(f, wireOf(m))
	f.Add(framed)
	f.Add(legacy)
	f.Add(framed[:len(framed)/2])
	f.Add(legacy[:len(legacy)/2])
	for _, raw := range [][]byte{framed, legacy} {
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)*2/3] ^= 0x10
		f.Add(flipped)
	}
	hostile := hostileModels(f)
	for _, h := range hostile {
		f.Add(frameBytes(f, fileVersion, h.gob))
	}
	for _, h := range hostile {
		f.Add(frameBytes(f, modelVersion, h.layout))
	}
	v1, err := os.ReadFile(legacyModelFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	for _, c := range layoutCases(f) {
		f.Add(c.raw)
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
