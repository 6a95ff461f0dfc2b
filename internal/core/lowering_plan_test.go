package core_test

import (
	"math"
	"math/rand"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/tensor"
)

// lowerTestConfigs sweeps both encoder families, VAE on/off, uneven region
// splits (ZDim not divisible by the layer count), and different depths.
func lowerTestConfigs() []core.Config {
	accel := core.DefaultConfig(6)
	accel.Accel = true
	accel.PhiHidden = []int{24, 16, 8}
	accel.ZDim = 10 // 3 regions of 4/3/3: exercises the remainder path
	accel.VAEHidden = []int{20, 12}
	accel.VAELatent = 6

	accelNoVAE := accel
	accelNoVAE.VAELatent = 0
	accelNoVAE.Seed = 2

	std := core.DefaultConfig(5)
	std.PhiHidden = []int{18, 12}
	std.ZDim = 7
	std.VAEHidden = []int{16}
	std.VAELatent = 4
	std.Seed = 3

	stdNoVAE := std
	stdNoVAE.VAELatent = 0
	stdNoVAE.Seed = 4

	return []core.Config{accel, accelNoVAE, std, stdNoVAE}
}

// randomBinary returns a rows×cols matrix of random 0/1 features.
func randomBinary(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	xs := tensor.NewMatrix(rows, cols)
	for i := range xs.Data {
		if rng.Intn(2) == 1 {
			xs.Data[i] = 1
		}
	}
	return xs
}

// TestLoweredModelMatchesLegacy checks the fusion algebra: the f64 plan built
// from the lowered spec must reproduce the unfused nn forward to float64
// reassociation error on both encoder families, and every curve it returns
// must satisfy Lemma 2.
func TestLoweredModelMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for ci, cfg := range lowerTestConfigs() {
		m := core.New(cfg, 12)
		p, err := infer.Lower(m, infer.PrecisionF64)
		if err != nil {
			t.Fatalf("cfg %d: %v", ci, err)
		}
		for _, b := range []int{1, 2, 9, 33} {
			xs := randomBinary(rng, b, 12)
			want := m.EstimateAllTausBatch(xs)
			got := p.EstimateAllTausBatch(xs)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("cfg %d: shape %d×%d, want %d×%d", ci, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range got.Data {
				w, g := want.Data[i], got.Data[i]
				if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
					t.Fatalf("cfg %d (accel=%v) batch %d: elem %d = %.15g, want %.15g", ci, cfg.Accel, b, i, g, w)
				}
			}
			for e := 0; e < got.Rows; e++ {
				if !core.CurveMonotone(got.Row(e)) {
					t.Fatalf("cfg %d: f64 plan curve %d not monotone: %v", ci, e, got.Row(e))
				}
			}
		}
	}
}

// TestLoweredModelImmutable checks that the f32 plan owns its (demoted)
// weights: mutating the source model after compiling must not change an
// f32 plan's outputs. (The f64 plan reads the model's weights in place;
// published models are frozen instead.)
func TestLoweredModelImmutable(t *testing.T) {
	for ci, cfg := range lowerTestConfigs() {
		m := core.New(cfg, 12)
		p, err := infer.Lower(m, infer.PrecisionF32)
		if err != nil {
			t.Fatal(err)
		}
		xs := randomBinary(rand.New(rand.NewSource(7)), 3, 12)
		before := p.EstimateAllTausBatch(xs)
		for _, prm := range m.Params() {
			for i := range prm.Value {
				prm.Value[i] += 0.5
			}
		}
		after := p.EstimateAllTausBatch(xs)
		for i := range before.Data {
			if before.Data[i] != after.Data[i] {
				t.Fatalf("cfg %d: f32 plan output changed after model mutation: elem %d %g -> %g", ci, i, before.Data[i], after.Data[i])
			}
		}
	}
}

// TestEstimateAllTausMatchesEstimateEncoded checks that the single estimate
// the lowered f64 plan answers at each τ equals the model's nn curve at that
// τ, to float64 reassociation error.
func TestEstimateAllTausMatchesEstimateEncoded(t *testing.T) {
	for ci, cfg := range lowerTestConfigs() {
		m := core.New(cfg, 16)
		p, err := infer.Lower(m, infer.PrecisionF64)
		if err != nil {
			t.Fatalf("cfg %d: %v", ci, err)
		}
		x := tensor.NewMatrix(1, 16)
		x.Data[0], x.Data[5], x.Data[11] = 1, 1, 1
		all := m.EstimateAllTausBatch(x).Row(0)
		for tau := 0; tau <= cfg.TauMax; tau++ {
			if got := p.Estimate(x.Row(0), tau); math.Abs(all[tau]-got) > 1e-9*math.Max(1, math.Abs(all[tau])) {
				t.Fatalf("cfg %d: mismatch at τ=%d: curve %v, Estimate %v", ci, tau, all[tau], got)
			}
		}
	}
}

// TestEstimateClampsTau checks the lowered plan's τ rule: a negative τ
// estimates 0 and a τ above TauMax answers the TauMax estimate.
func TestEstimateClampsTau(t *testing.T) {
	cfg := core.DefaultConfig(4)
	m := core.New(cfg, 8)
	p, err := infer.Lower(m, infer.PrecisionF64)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	if p.Estimate(x, -3) != 0 {
		t.Fatal("negative τ must estimate 0")
	}
	if p.Estimate(x, 99) != p.Estimate(x, 4) {
		t.Fatal("τ above TauMax must clamp")
	}
}
