package serving

import (
	"context"
	"math"
	"testing"

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
	reg := testRegistry(t, m1)
	e := NewEngine(reg, Config{MaxBatch: 4, CacheEntries: 128})
	defer e.Close()

	x := binVec(5, m1.InDim)
	v1, err := e.Estimate(context.Background(), x, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := planCurve(t, m1, x)[3]; v1 != want {
		t.Fatalf("cold estimate %v != f64 plan %v", v1, want)
	}
	if e.CacheLen() == 0 {
		t.Fatal("nothing cached after a miss")
	}

	hitsBefore := testObsCounter("serving.cache.hits")
	v1b, err := e.Estimate(context.Background(), x, 3, nil)
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
	v2, err := e.Estimate(context.Background(), x, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := planCurve(t, m2, x)[3]; v2 != want {
		t.Fatalf("post-swap estimate %v != new model's f64 plan %v (stale cache?)", v2, want)
	}
	if v2 == v1 {
		t.Fatal("post-swap estimate identical to old model's — swap had no effect")
	}

	// The point request cached x's whole curve: EstimateAll reads the same
	// entry without another forward pass.
	hitsBefore = testObsCounter("serving.cache.hits")
	all, err := e.EstimateAll(context.Background(), x, nil)
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
	batches := obs.Default.Histogram("serving.batch.size", obs.LinearBuckets(1, 1, 64))
	for i, prec := range []infer.Precision{infer.PrecisionF64, infer.PrecisionF32} {
		t.Run(string(prec), func(t *testing.T) {
			plan, err := infer.Lower(m, prec)
			if err != nil {
				t.Fatal(err)
			}
			reg := mustRegistry(t, m, PlanConfig{Precision: prec})
			if tier := reg.Current().Plan.Tier(); tier != prec {
				t.Fatalf("registry serves %s, want %s", tier, prec)
			}
			e := NewEngine(reg, Config{MaxBatch: 4})
			defer e.Close()
			x := binVec(int64(100+i), m.InDim)
			want := plan.EstimateAllTaus(x)
			forwards, hits := batches.Count(), testObsCounter("serving.cache.hits")
			for tau := 0; tau <= m.Cfg.TauMax; tau++ {
				got, err := e.Estimate(context.Background(), x, tau, nil)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want[tau]) {
					t.Fatalf("τ=%d: engine %v, direct %v", tau, got, want[tau])
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

// TestEngineCacheMatchesNoCache is the cache's differential test: one query
// stream with repeats, and a Registry.Swap partway through, goes to an
// engine on the default cache and to one with the cache disabled. Every
// answer must be bit-equal across the two engines and to the live model's
// f64 plan, so every post-swap answer comes from the new model.
func TestEngineCacheMatchesNoCache(t *testing.T) {
	m1, m2 := testModel(31), testModel(32)
	regC, regN := testRegistry(t, m1), testRegistry(t, m1)
	cached := NewEngine(regC, Config{})
	defer cached.Close()
	uncached := NewEngine(regN, Config{CacheEntries: -1})
	defer uncached.Close()

	ctx := context.Background()
	// answer is x's whole curve for tau < 0, else the one-element curve
	// {estimate at tau}.
	answer := func(e *Engine, x []float64, tau int) []float64 {
		if tau < 0 {
			curve, err := e.EstimateAll(ctx, x, nil)
			if err != nil {
				t.Fatal(err)
			}
			return curve
		}
		v, err := e.Estimate(ctx, x, tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		return []float64{v}
	}
	pool := make([][]float64, 6)
	for i := range pool {
		pool[i] = binVec(int64(300+i), m1.InDim)
	}
	hits := testObsCounter("serving.cache.hits")
	live := m1
	for q := 0; q < 120; q++ {
		if q == 60 {
			for _, reg := range []*Registry{regC, regN} {
				if _, err := reg.Swap(m2); err != nil {
					t.Fatal(err)
				}
			}
			live = m2
		}
		x := pool[(q*q+q/7)%len(pool)]
		tau := q%(live.Cfg.TauMax+2) - 1
		want := planCurve(t, live, x)
		if tau >= 0 {
			want = want[tau : tau+1]
		}
		for k, e := range []*Engine{cached, uncached} {
			got := answer(e, x, tau)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("query %d (τ %d) engine %d element %d: %v, live model's plan %v",
						q, tau, k, i, got[i], want[i])
				}
			}
		}
	}
	if testObsCounter("serving.cache.hits") == hits {
		t.Fatal("the stream never hit the cache; the differential compared nothing")
	}
}
