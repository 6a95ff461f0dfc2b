package core

import (
	"math"
	"math/bits"
	"math/rand"
)

// countingSource wraps the math/rand source behind every training RNG and
// counts how many values have been drawn from it. The count is the RNG half
// of a training checkpoint: math/rand exposes no way to serialize a source's
// internal state, but the stock source advances by exactly one internal step
// per Int63 or Uint64 call, so (seed, draw count) identifies a stream
// position exactly — a fresh source skipped forward by the count continues
// the stream bit-identically. Everything stochastic in training (epoch
// shuffles, VAE reparameterization noise, per-shard seed draws) bottoms out
// in this source, so no other RNG state exists.
//
// The one-step-per-call property is locked in by TestCountingSourceSkip:
// rand's rngSource implements Int63 as a masked Uint64, so a Skip performed
// with Uint64 calls replays a mixed Int63/Uint64 history exactly.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

// newCountingSource seeds a counting source with the stock math/rand source.
func newCountingSource(seed int64) *countingSource {
	// rand.NewSource's concrete type has implemented Source64 since Go 1.8;
	// the assertion guards the invariant rather than a realistic failure.
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 draws one value, counting it.
func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

// Uint64 draws one value, counting it.
func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Seed reseeds the underlying source and resets the draw count.
func (c *countingSource) Seed(s int64) {
	c.src.Seed(s)
	c.draws = 0
}

// Draws reports how many values have been drawn since seeding.
func (c *countingSource) Draws() uint64 { return c.draws }

// Skip advances the stream by n draws without exposing the values, placing
// the source exactly where a checkpointed run left it.
func (c *countingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.draws += n
}

// maxDraws bounds the values a run can draw from its stream in `epochs`
// passes over n queries: per pass, one shuffle draw and `latent`
// reparameterization normals per query, plus up to `workers` shard seeds per
// minibatch of `batch` rows. Shuffle and NormFloat64 retry rarely (about 1 %
// of normals), so four times that count plus a constant is far beyond any
// real run, while a lying checkpoint cannot make a resume skip the stream
// for hours. The arithmetic saturates instead of overflowing.
func maxDraws(epochs, n, latent, batch, workers int) uint64 {
	mul := func(a, b uint64) uint64 {
		if hi, lo := bits.Mul64(a, b); hi == 0 {
			return lo
		}
		return math.MaxUint64
	}
	add := func(a, b uint64) uint64 {
		if s, carry := bits.Add64(a, b, 0); carry == 0 {
			return s
		}
		return math.MaxUint64
	}
	nq := uint64(max(n, 0))
	batches := (nq + uint64(batch) - 1) / uint64(batch)
	perEpoch := add(mul(nq, uint64(1+max(latent, 0))), mul(batches, uint64(workers)))
	return add(mul(4, mul(uint64(epochs), perEpoch)), 1024)
}
