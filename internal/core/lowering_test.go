package core

import (
	"math/rand"
	"testing"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// TestAccelScratchBitIdentical checks that a reused context's scratch
// buffers give bit-identical results to a fresh context, call after call:
// embeddings in inference and training mode, and in training mode also dXp
// and the parameter gradients of the scratch-backed backward.
func TestAccelScratchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := newAccelEncoder(rng, 10, []int{14, 9}, 8, 5)
	ctx := nn.NewCtx()
	same := func(what string, iter int, got, want []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: %s elem %d = %g, want %g", iter, what, i, got[i], want[i])
			}
		}
	}
	for iter := 0; iter < 6; iter++ {
		train := iter%2 == 1
		xp := tensor.NewMatrix(4, 10)
		tensor.RandNormal(rng, xp.Data, 0, 1)
		fresh := nn.NewCtx()
		want := a.Forward(fresh, xp, train)
		same("z", iter, a.Forward(ctx, xp, train).Data, want.Data)
		if !train {
			continue
		}
		dz := tensor.NewMatrix(want.Rows, want.Cols)
		tensor.RandNormal(rng, dz.Data, 0, 1)
		same("dxp", iter, a.Backward(ctx, dz).Data, a.Backward(fresh, dz).Data)
		for _, p := range a.Params() {
			same(p.Name+" grad", iter, ctx.GradOf(p), fresh.GradOf(p))
		}
		ctx.AddGradsInto(a.Params()) // empty the reused context for the next step
	}
}
