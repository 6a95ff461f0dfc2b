package serving

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// FuzzCurveKey: two binary vectors of one width get equal packed keys
// exactly when they are equal (and then equal shard hashes), and a vector
// with any component other than 0 or 1 is ErrBadInput, never a key. The
// vectors are the bits of a and b, b truncated or zero-padded to a's width;
// v replaces component at. Seeds live in testdata/fuzz/FuzzCurveKey.
func FuzzCurveKey(f *testing.F) {
	f.Add([]byte{0xa5, 0x01}, []byte{0xa5, 0x01}, 1.0, uint(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, 0.5, uint(64))
	f.Add([]byte{0xff}, []byte{}, math.NaN(), uint(0))
	f.Fuzz(func(t *testing.T, a, b []byte, v float64, at uint) {
		xa, xb := bitsOf(a, len(a)), bitsOf(b, len(a))
		ka, errA := packX(xa)
		kb, errB := packX(xb)
		if errA != nil || errB != nil {
			t.Fatalf("binary vectors rejected: %v %v", errA, errB)
		}
		if same := slices.Equal(xa, xb); same != (ka.bits == kb.bits) {
			t.Fatalf("vectors equal=%v but packed keys equal=%v", same, ka.bits == kb.bits)
		}
		if ka.bits == kb.bits && ka.h != kb.h {
			t.Fatal("equal keys hashed to different shards")
		}
		if len(xa) == 0 {
			return
		}
		xa[at%uint(len(xa))] = v
		_, err := packX(xa)
		if binary := v == 0 || v == 1; binary != (err == nil) {
			t.Fatalf("component %v: err=%v", v, err)
		}
		if err != nil && !errors.Is(err, ErrBadInput) {
			t.Fatalf("component %v: err=%v, want ErrBadInput", v, err)
		}
	})
}

// bitsOf expands the first n bytes of p (zero-padded) into 8n 0/1 features.
func bitsOf(p []byte, n int) []float64 {
	x := make([]float64, 8*n)
	for i := range x {
		if i/8 < len(p) && p[i/8]>>(i%8)&1 == 1 {
			x[i] = 1
		}
	}
	return x
}
