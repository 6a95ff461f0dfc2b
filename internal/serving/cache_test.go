package serving

import (
	"context"
	"math"
	"testing"
	"time"

	"cardnet/internal/infer"
	"cardnet/internal/obs"
)

func testObsCounter(name string) uint64 { return obs.Default.Counter(name).Value() }

// testKey packs the 8-bit binary expansion of i.
func testKey(t *testing.T, i int) curveKey {
	t.Helper()
	x := make([]float64, 8)
	for b := range x {
		x[b] = float64((i >> b) & 1)
	}
	k, err := packX(x)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCurveCache(4, 1) // one shard of 4 for a deterministic LRU order
	gen := c.Gen()
	for i := 0; i < 4; i++ {
		c.Put(testKey(t, i), []float64{float64(i)}, gen)
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := c.Get(testKey(t, 0)); !ok {
		t.Fatal("warm key missing")
	}
	c.Put(testKey(t, 99), []float64{99}, gen)
	if c.Len() != 4 {
		t.Fatalf("len=%d after eviction, want 4", c.Len())
	}
	if _, ok := c.Get(testKey(t, 1)); ok {
		t.Fatal("LRU victim still cached")
	}
	for _, i := range []int{0, 2, 3, 99} {
		if _, ok := c.Get(testKey(t, i)); !ok {
			t.Fatalf("key %d evicted, want key 1 only", i)
		}
	}
}

// TestCacheCurveServesEveryTau: the key is x alone, so the curve one τ cached
// answers every τ of that x, and another x misses.
func TestCacheCurveServesEveryTau(t *testing.T) {
	c := newCurveCache(8, 2)
	curve := []float64{1, 2, 3}
	c.Put(testKey(t, 7), curve, c.Gen())
	got, ok := c.Get(testKey(t, 7))
	if !ok || len(got) != len(curve) {
		t.Fatalf("curve not cached: %v", got)
	}
	for tau := range curve {
		if got[tau] != curve[tau] {
			t.Fatalf("τ=%d: cached %v, want %v", tau, got[tau], curve[tau])
		}
	}
	if _, ok := c.Get(testKey(t, 6)); ok {
		t.Fatal("unexpected hit on an uncached x")
	}
}

// TestCacheShardCollisionDistinctCurves forces two distinct vectors onto the
// same shard hash: each still gets its own curve, because the map key is the
// packed vector itself, not the hash.
func TestCacheShardCollisionDistinctCurves(t *testing.T) {
	c := newCurveCache(64, 8)
	a, b := testKey(t, 5), testKey(t, 10)
	b.h = a.h
	gen := c.Gen()
	c.Put(a, []float64{1, 2}, gen)
	c.Put(b, []float64{3, 4}, gen)
	va, okA := c.Get(a)
	vb, okB := c.Get(b)
	if !okA || !okB {
		t.Fatalf("colliding keys missing: a=%v b=%v", okA, okB)
	}
	if va[0] != 1 || vb[0] != 3 {
		t.Fatalf("colliding keys share a curve: a=%v b=%v", va, vb)
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2 distinct entries", c.Len())
	}
}

func TestCacheInvalidateDropsEntriesAndStalePuts(t *testing.T) {
	c := newCurveCache(16, 4)
	gen := c.Gen()
	c.Put(testKey(t, 1), []float64{1}, gen)
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("len=%d after invalidate", c.Len())
	}
	// A worker that snapshotted the old generation must not repopulate.
	c.Put(testKey(t, 2), []float64{2}, gen)
	if c.Len() != 0 {
		t.Fatal("stale-generation Put was accepted")
	}
	c.Put(testKey(t, 2), []float64{2}, c.Gen())
	if c.Len() != 1 {
		t.Fatal("fresh-generation Put was dropped")
	}
}

// TestPackXDistinguishesVectors: packing is exact on binary vectors (equal
// keys iff equal vectors, across word boundaries) and deterministic.
func TestPackXDistinguishesVectors(t *testing.T) {
	a := make([]float64, 130) // three words, the last one partial
	b := append([]float64(nil), a...)
	b[64] = 1 // first bit of the second word
	cc := append([]float64(nil), a...)
	cc[129] = 1 // last bit of the partial word
	ka, kb, kc := mustPack(t, a), mustPack(t, b), mustPack(t, cc)
	if ka.bits == kb.bits || ka.bits == kc.bits || kb.bits == kc.bits {
		t.Fatal("distinct binary vectors packed to the same key")
	}
	if again := mustPack(t, append([]float64(nil), b...)); again != kb {
		t.Fatal("packing not deterministic")
	}
	if len(ka.bits) != 3*8 {
		t.Fatalf("130 features packed into %d bytes, want 24", len(ka.bits))
	}
}

func mustPack(t *testing.T, x []float64) curveKey {
	t.Helper()
	k, err := packX(x)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// End-to-end cache behaviour: repeat traffic hits, swap invalidates, and
// post-swap answers come from the new model.
func TestEngineCacheHitAndInvalidateOnSwap(t *testing.T) {
	m1, m2 := testModel(10), testModel(20)
	reg := NewRegistry(m1)
	e := NewEngine(reg, Config{MaxBatch: 4, MaxWait: time.Millisecond, CacheEntries: 128})
	defer e.Close()

	x := binVec(5, m1.InDim)
	v1, err := e.Estimate(context.Background(), x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := m1.EstimateEncoded(x, 3); v1 != want {
		t.Fatalf("cold estimate %v != model %v", v1, want)
	}
	if e.CacheLen() == 0 {
		t.Fatal("nothing cached after a miss")
	}

	hitsBefore := testObsCounter("serving.cache.hits")
	v1b, err := e.Estimate(context.Background(), x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v1b != v1 {
		t.Fatalf("cached value %v != original %v", v1b, v1)
	}
	if testObsCounter("serving.cache.hits") == hitsBefore {
		t.Fatal("repeat estimate did not hit the cache")
	}

	if _, err := reg.Swap(m2); err != nil {
		t.Fatal(err)
	}
	if n := e.CacheLen(); n != 0 {
		t.Fatalf("cache holds %d entries after swap, want 0", n)
	}
	v2, err := e.Estimate(context.Background(), x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := m2.EstimateEncoded(x, 3); v2 != want {
		t.Fatalf("post-swap estimate %v != new model %v (stale cache?)", v2, want)
	}
	if v2 == v1 {
		t.Fatal("post-swap estimate identical to old model's — swap had no effect")
	}

	// The point request cached x's whole curve: EstimateAll reads the same
	// entry without another forward pass.
	hitsBefore = testObsCounter("serving.cache.hits")
	all, err := e.EstimateAll(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if testObsCounter("serving.cache.hits") != hitsBefore+1 {
		t.Fatal("EstimateAll after Estimate missed the cached curve")
	}
	if all[3] != v2 || e.CacheLen() != 1 {
		t.Fatalf("curve[3]=%v, estimate %v, %d entries; want one shared entry", all[3], v2, e.CacheLen())
	}
}

// TestEngineSweepCostsOneForward: a τ = 0..τmax sweep of a new x runs one
// forward pass and answers the other τmax thresholds from the cached curve,
// every answer bit-equal to the tier's direct evaluation.
func TestEngineSweepCostsOneForward(t *testing.T) {
	m := testModel(1)
	plan, gate, err := infer.Compile(m, infer.PrecisionF32, infer.GateConfig{})
	if err != nil || !gate.Pass {
		t.Fatalf("f32 compile: %v %+v", err, gate)
	}
	tiers := []struct {
		prec infer.Precision
		want func(x []float64, tau int) float64
	}{
		{infer.PrecisionF64, m.EstimateEncoded},
		{infer.PrecisionF32, func(x []float64, tau int) float64 { return plan.EstimateAllTaus(x)[tau] }},
	}
	batches := obs.Default.Histogram("serving.batch.size", obs.LinearBuckets(1, 1, 64))
	for i, tc := range tiers {
		t.Run(string(tc.prec), func(t *testing.T) {
			e := NewEngine(NewRegistry(m), Config{MaxBatch: 4, MaxWait: time.Millisecond, Precision: tc.prec})
			defer e.Close()
			x := binVec(int64(100+i), m.InDim)
			forwards, hits := batches.Count(), testObsCounter("serving.cache.hits")
			for tau := 0; tau <= m.Cfg.TauMax; tau++ {
				got, err := e.Estimate(context.Background(), x, tau)
				if err != nil {
					t.Fatal(err)
				}
				if want := tc.want(x, tau); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("τ=%d: engine %v, direct %v", tau, got, want)
				}
			}
			if n := batches.Count() - forwards; n != 1 {
				t.Fatalf("sweep ran %d forward passes, want 1", n)
			}
			if n := testObsCounter("serving.cache.hits") - hits; n != uint64(m.Cfg.TauMax) {
				t.Fatalf("sweep hit the cache %d times, want %d", n, m.Cfg.TauMax)
			}
		})
	}
}
