package infer

import (
	"math"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/tensor"
)

// FuzzPlanTiers is the differential test across the three forwards of a
// model: fuzz bytes become 1–4 binary query rows (the first byte picks the
// row count, the rest are the feature bits, zero-padded), run on small models
// of both encoder families through the f64 plan, the f32 plan and the nn
// forward. Every plan curve must pass core.CurveMonotone, the f64 plan must
// match nn within 1e-9 relative, every f32 q-error must stay within
// DefaultGateMaxDelta, and each batch row must be bit-equal to the same row
// run alone (the curve cache serves single-row answers to batched queries).
// Seeds live in testdata/fuzz/FuzzPlanTiers.
func FuzzPlanTiers(f *testing.F) {
	type tiers struct {
		m        *core.Model
		f64, f32 *Plan
	}
	var models []tiers
	for _, cfg := range testConfigs() {
		m := core.New(cfg, 12)
		p64, err := Lower(m, PrecisionF64)
		if err != nil {
			f.Fatal(err)
		}
		p32, err := Lower(m, PrecisionF32)
		if err != nil {
			f.Fatal(err)
		}
		models = append(models, tiers{m, p64, p32})
	}
	f.Add([]byte{3, 0xa5, 0x5a, 0xff, 0x00, 0x3c, 0xc3})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := 1
		if len(data) > 0 {
			rows += int(data[0]) % 4
			data = data[1:]
		}
		xs := tensor.NewMatrix(rows, 12)
		for i := range xs.Data {
			if i/8 < len(data) && data[i/8]>>(i%8)&1 == 1 {
				xs.Data[i] = 1
			}
		}
		for mi, tc := range models {
			want := tc.m.EstimateAllTausBatch(xs)
			got64 := tc.f64.EstimateAllTausBatch(xs)
			got32 := tc.f32.EstimateAllTausBatch(xs)
			for i, w := range want.Data {
				if g := got64.Data[i]; math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
					t.Fatalf("model %d elem %d: f64 plan %.17g, nn %.17g", mi, i, g, w)
				}
				q := (got32.Data[i] + 1) / (w + 1)
				if q < 1 {
					q = 1 / q
				}
				if q-1 > DefaultGateMaxDelta {
					t.Fatalf("model %d elem %d: f32 plan %g, nn %g (q-error %g)", mi, i, got32.Data[i], w, q)
				}
			}
			for _, r := range []struct {
				p   *Plan
				all *tensor.Matrix
			}{{tc.f64, got64}, {tc.f32, got32}} {
				for e := 0; e < rows; e++ {
					if !core.CurveMonotone(r.all.Row(e)) {
						t.Fatalf("model %d %s row %d: curve not monotone: %v", mi, r.p.Tier(), e, r.all.Row(e))
					}
					one := r.p.EstimateAllTaus(xs.Row(e))
					for i, v := range r.all.Row(e) {
						if math.Float64bits(one[i]) != math.Float64bits(v) {
							t.Fatalf("model %d %s row %d τ=%d: batch %v, alone %v", mi, r.p.Tier(), e, i, v, one[i])
						}
					}
				}
			}
		}
	})
}
