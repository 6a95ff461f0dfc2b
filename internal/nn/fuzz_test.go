package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// specialValues are the floats whose gob encodings sit at the edges of the
// size arithmetic: zero (one byte), −0 (the sign bit alone), infinities,
// NaN payloads, subnormals and the largest finite magnitudes.
var specialValues = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead00000000),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5, 2, 1e-300,
}

// fuzzParams reads a parameter list from data. Each param takes a header of
// two bytes, a name length (0–7) and a value count (up to 199, or
// 40·(c−200) for c ≥ 200, which reaches slice lengths of two and three
// encoded bytes), then its name. Each value takes one selector byte: below
// len(specialValues) it picks a special value, below 0x80 a random normal
// draw, else the next eight bytes as raw bits. Values past the end of data
// come from a generator seeded by data's length.
func fuzzParams(data []byte) []*Param {
	rng := rand.New(rand.NewSource(int64(len(data))))
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	var ps []*Param
	for len(data) >= 2 {
		h := take(2)
		count := int(h[1])
		if count >= 200 {
			count = 40 * (count - 200)
		}
		p := &Param{Name: string(take(int(h[0] % 8))), Value: make([]float64, count)}
		for i := range p.Value {
			sel := take(1)
			switch {
			case len(sel) == 0:
				p.Value[i] = math.Float64frombits(rng.Uint64())
			case int(sel[0]) < len(specialValues):
				p.Value[i] = specialValues[sel[0]]
			case sel[0] < 0x80:
				p.Value[i] = rng.NormFloat64() * math.Pow(10, float64(int(sel[0])-64))
			default:
				raw := make([]byte, 8)
				copy(raw, take(8))
				p.Value[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
			}
		}
		ps = append(ps, p)
	}
	return ps
}

// FuzzParamBytes pins ParamBytes, which computes gob's byte count, to the
// bytes Snapshot.Encode actually writes: for no params, one or many, empty
// names and empty value slices, and values from the special set, random
// draws and raw bit patterns.
func FuzzParamBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 'W', '/', 'b', 0})
	f.Add([]byte{0, 4, 1, 2, 3, 4, 0, 0, 5, 0})
	f.Add([]byte{2, 255, 'E', 'x'})
	f.Add([]byte{1, 203, 'W', 0x90, 1, 2, 3, 4, 5, 6, 7, 8, 0, 127, 'b'})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 0, 255}) // a value message past 64 KiB
	f.Fuzz(func(t *testing.T, data []byte) {
		params := fuzzParams(data)
		var buf bytes.Buffer
		if err := TakeSnapshot(params).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if got := ParamBytes(params); got != buf.Len() {
			t.Fatalf("%d params, %d values: ParamBytes %d, Encode wrote %d bytes",
				len(params), NumParams(params), got, buf.Len())
		}
	})
}
