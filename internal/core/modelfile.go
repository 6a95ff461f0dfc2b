package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"cardnet/internal/nn"
)

// A model file's payload is a length-prefixed gob header followed by the raw
// weights:
//
//	uint32, little-endian   n, the header's byte length
//	n bytes                 gob-encoded modelHeader
//	8 bytes per weight      every parameter's values in Params() order,
//	                        IEEE 754 float64, little-endian
//
// The header carries no lengths: the config implies every parameter's
// length, and the weight section must hold exactly that many values.
//
// The weights never pass through gob, so a load decodes each one straight
// into the parameter that holds it. The header's length comes first because
// a gob decoder buffers any reader that is not an io.ByteReader and would
// swallow the start of the weight section.

// modelHeader is everything in a model file but the weight values.
type modelHeader struct {
	Cfg    Config
	InDim  int
	TauTop int
}

// modelState is the older gob layout, which carries the weights inside the
// gob message. LoadGob still reads it.
type modelState struct {
	Cfg    Config
	InDim  int
	TauTop int
	Snap   *nn.Snapshot
}

// Encode returns the model in the model-file layout. The bytes are a pure
// function of the model: the same weights encode identically on every host
// and in every process.
func (m *Model) Encode() ([]byte, error) {
	params := m.Params()
	h := modelHeader{Cfg: m.Cfg, InDim: m.InDim, TauTop: m.TauTop}
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(&h); err != nil {
		return nil, err
	}
	out := make([]byte, 4+hdr.Len()+8*nn.NumParams(params))
	binary.LittleEndian.PutUint32(out, uint32(hdr.Len()))
	w := out[4+copy(out[4:], hdr.Bytes()):]
	for _, p := range params {
		for i, v := range p.Value {
			binary.LittleEndian.PutUint64(w[8*i:], math.Float64bits(v))
		}
		w = w[8*len(p.Value):]
	}
	return out, nil
}

// Decode rebuilds a model from Encode's bytes. The bytes are untrusted: the
// parameters the header's config builds must hold exactly the weights the
// weight section carries, checked before anything sized by the model is
// allocated. Each parameter is then allocated once and filled from the
// weight section; nothing else sized by the model is.
func Decode(b []byte) (*Model, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: model file of %d bytes has no header length", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-4) {
		return nil, fmt.Errorf("core: model header length %d exceeds the %d bytes after it", n, len(b)-4)
	}
	b = b[4:]
	r := bytes.NewReader(b[:n])
	var h modelHeader
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		return nil, fmt.Errorf("core: model header: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("core: %d stray bytes after the model header", r.Len())
	}
	w := b[n:]
	if len(w)%8 != 0 {
		return nil, fmt.Errorf("core: weight section of %d bytes is not whole float64s", len(w))
	}
	if err := checkShapes(h.Cfg, h.InDim, len(w)/8); err != nil {
		return nil, err
	}
	m := build(h.Cfg, h.InDim, nil)
	m.TauTop = h.TauTop
	for _, p := range m.Params() {
		for i := range p.Value {
			p.Value[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[8*i:]))
		}
		w = w[8*len(p.Value):]
	}
	return m, nil
}

// LoadGob reads a model in the older gob layout, which earlier builds wrote.
// Like Decode it treats the bytes as untrusted: a config that does not match
// the decoded weights is an error, never a panic or an allocation beyond the
// weights actually read.
func LoadGob(r io.Reader) (*Model, error) {
	var st modelState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, err
	}
	return restore(st.Cfg, st.InDim, st.TauTop, st.Snap)
}

// Clone returns a deep copy of m: the same config, TauTop and weight bits,
// sharing no storage with m. Like a loaded model it carries no Hook or Stop
// and no gradients.
func (m *Model) Clone() *Model {
	cfg := m.Cfg
	cfg.VAEHidden = append([]int(nil), cfg.VAEHidden...)
	cfg.PhiHidden = append([]int(nil), cfg.PhiHidden...)
	cfg.Hook, cfg.Stop = nil, nil
	c := build(cfg, m.InDim, nil)
	c.TauTop = m.TauTop
	src := m.Params()
	for i, p := range c.Params() {
		copy(p.Value, src[i].Value)
	}
	return c
}

// restore rebuilds a model from a decoded config and weight snapshot, the
// shared tail of LoadGob and RestoreTrainer. checkShapes runs first, so build
// only ever allocates as many weights as the snapshot already holds, and it
// draws no initial weights: the snapshot, whose shapes Restore checks tensor
// by tensor, overwrites every one.
func restore(cfg Config, inDim, tauTop int, snap *nn.Snapshot) (*Model, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: model has no weight snapshot")
	}
	total := 0
	for _, v := range snap.Values {
		total += len(v)
	}
	if err := checkShapes(cfg, inDim, total); err != nil {
		return nil, err
	}
	m := build(cfg, inDim, nil)
	m.TauTop = tauTop
	if err := snap.Restore(m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// checkShapes verifies, without allocating them, that the parameters
// New(cfg, inDim) would build hold exactly limit values in all. Widths must
// be positive and τmax, the VAE latent and the distance embedding
// non-negative; CardNet-A needs at least one hidden layer. Every dimension
// must also fit within limit, which keeps the size arithmetic below free of
// overflow; callers bound limit by the bytes actually read.
func checkShapes(cfg Config, inDim, limit int) error {
	dims := append([]int{inDim, cfg.ZDim}, cfg.VAEHidden...)
	dims = append(dims, cfg.PhiHidden...)
	for _, d := range dims {
		if d < 1 || d > limit {
			return fmt.Errorf("core: model width %d outside [1, %d]", d, limit)
		}
	}
	for _, d := range []int{cfg.TauMax, cfg.VAELatent, cfg.EmbDim} {
		if d < 0 || d >= limit {
			return fmt.Errorf("core: model size %d outside [0, %d)", d, limit)
		}
	}
	if cfg.Accel && len(cfg.PhiHidden) == 0 {
		return fmt.Errorf("core: CardNet-A config has no hidden layers")
	}

	// mul saturates at limit+1, a length no parameter can have.
	mul := func(a, b int) int {
		if a != 0 && b > limit/a {
			return limit + 1
		}
		return a * b
	}
	var want []int
	dense := func(in, out int) { want = append(want, mul(in, out), out) }
	mlp := func(dims []int) {
		for i := 0; i+1 < len(dims); i++ {
			dense(dims[i], dims[i+1])
		}
	}
	if cfg.VAELatent > 0 { // nn.NewVAE
		enc := append([]int{inDim}, cfg.VAEHidden...)
		mlp(enc)
		dense(enc[len(enc)-1], cfg.VAELatent)
		dense(enc[len(enc)-1], cfg.VAELatent)
		dec := []int{cfg.VAELatent}
		for i := len(cfg.VAEHidden) - 1; i >= 0; i-- {
			dec = append(dec, cfg.VAEHidden[i])
		}
		mlp(append(dec, inDim))
	}
	tauCount := cfg.TauMax + 1
	want = append(want, mul(tauCount, cfg.EmbDim))
	xpDim := inDim + cfg.VAELatent
	if cfg.Accel { // newAccelEncoder
		n := len(cfg.PhiHidden)
		prev := xpDim
		for j, h := range cfg.PhiHidden {
			region := cfg.ZDim / n
			if j < cfg.ZDim%n {
				region++
			}
			dense(prev, h)
			dense(h, mul(tauCount, region))
			prev = h
		}
	} else {
		dims := append([]int{xpDim + cfg.EmbDim}, cfg.PhiHidden...)
		mlp(append(dims, cfg.ZDim))
	}
	want = append(want, mul(tauCount, cfg.ZDim), tauCount)

	// Each length is at most limit+1, and the sum stops once past limit.
	total := 0
	for _, n := range want {
		if n > limit-total {
			return fmt.Errorf("core: config implies more than the file's %d weights", limit)
		}
		total += n
	}
	if total != limit {
		return fmt.Errorf("core: config implies %d weights, file has %d", total, limit)
	}
	return nil
}
