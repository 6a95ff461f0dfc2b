package core

import (
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// Save writes the model to w in the model-file layout (see Encode).
func (m *Model) Save(w io.Writer) error {
	b, err := m.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Load reads a model written by Save (see Decode).
func Load(r io.Reader) (*Model, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// paramBits is every weight of m as IEEE bits, in Params() order.
func paramBits(m *Model) [][]uint64 {
	var out [][]uint64
	for _, p := range m.Params() {
		b := make([]uint64, len(p.Value))
		for i, v := range p.Value {
			b[i] = math.Float64bits(v)
		}
		out = append(out, b)
	}
	return out
}

func equalBits(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestModelClone: a clone holds the original's config and weights bit for
// bit but shares no storage with it, so training the clone leaves every bit
// of the original alone.
func TestModelClone(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 150)
	for _, accel := range []bool{false, true} {
		cfg := tinyConfig(12, accel)
		cfg.Epochs = 2
		m := New(cfg, train.X.Cols)
		m.Train(train, valid)
		orig := paramBits(m)

		c := m.Clone()
		if !equalBits(paramBits(c), orig) {
			t.Fatalf("accel=%v: clone's weights differ from the original's", accel)
		}
		if c.InDim != m.InDim || c.TauTop != m.TauTop || c.SizeBytes() != m.SizeBytes() {
			t.Fatalf("accel=%v: clone InDim/TauTop/SizeBytes %d/%d/%d, original %d/%d/%d",
				accel, c.InDim, c.TauTop, c.SizeBytes(), m.InDim, m.TauTop, m.SizeBytes())
		}
		c.Cfg.VAEHidden[0]++
		c.Cfg.PhiHidden[0]++
		if m.Cfg.VAEHidden[0] != cfg.VAEHidden[0] || m.Cfg.PhiHidden[0] != cfg.PhiHidden[0] {
			t.Fatalf("accel=%v: clone shares its config's slices with the original", accel)
		}
		c.Cfg.VAEHidden[0]--
		c.Cfg.PhiHidden[0]--

		for i := range train.Labels.Data {
			train.Labels.Data[i] *= 2
		}
		c.Train(train, valid)
		if equalBits(paramBits(c), orig) {
			t.Fatalf("accel=%v: training the clone changed none of its weights", accel)
		}
		if !equalBits(paramBits(m), orig) {
			t.Fatalf("accel=%v: training the clone changed the original's weights", accel)
		}
	}
}

// TestDecodeRejectsHeaderLengthNearMaxUint32: a header length that would
// wrap if added to the 4-byte prefix in uint32 arithmetic is an error, not
// a slice panic.
func TestDecodeRejectsHeaderLengthNearMaxUint32(t *testing.T) {
	for _, n := range []uint32{math.MaxUint32, math.MaxUint32 - 3, math.MaxUint32 - 4} {
		b := binary.LittleEndian.AppendUint32(nil, n)
		b = append(b, make([]byte, 16)...)
		if _, err := Decode(b); err == nil {
			t.Fatalf("header length %#x on a %d-byte payload decoded", n, len(b))
		}
	}
}
