package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/obs"
	"cardnet/internal/serving"
)

// TestFleetCacheHitRatioScalesWithReplicas checks the reason the router
// routes on KeyHash(x): each replica's curve cache only has to hold its own
// share of the working set. The working set is the 512 one-bit variants of
// eight base queries, 1.6× one replica's 320-entry cache, scanned cyclically
// so a lone replica's LRU thrashes. Routing each query to its ring owner and
// driving one real engine per replica, the fleet hit ratio must rise strictly
// from 1 to 2 to 4 replicas and reach 0.9 at 4. Everything is sequential and
// deterministic: no timing, no HTTP.
func TestFleetCacheHitRatioScalesWithReplicas(t *testing.T) {
	const (
		dim          = 64
		bases        = 8
		cacheEntries = 320
		passes       = 3
	)
	cfg := core.DefaultConfig(4)
	cfg.VAELatent = 0
	cfg.PhiHidden = []int{8}
	cfg.ZDim = 4
	cfg.Accel = true
	m := core.New(cfg, dim)

	rng := rand.New(rand.NewSource(5))
	var working [][]float64
	for b := 0; b < bases; b++ {
		base := make([]float64, dim)
		for i := range base {
			base[i] = float64(rng.Intn(2))
		}
		for bit := 0; bit < dim; bit++ {
			x := append([]float64(nil), base...)
			x[bit] = 1 - x[bit]
			working = append(working, x)
		}
	}

	hits := obs.Default.Counter("serving.cache.hits")
	misses := obs.Default.Counter("serving.cache.misses")
	var ratios []float64
	for _, n := range []int{1, 2, 4} {
		ring := NewRing(DefaultVNodes)
		engines := make(map[string]*serving.Engine, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("replica-%d", i)
			ring.Add(name)
			reg, err := serving.NewRegistry(m, serving.PlanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			engines[name] = serving.NewEngine(reg, serving.Config{
				Workers:      1,
				CacheEntries: cacheEntries,
			})
		}
		scan := func() {
			for _, x := range working {
				node, _ := ring.Lookup(KeyHash(x))
				if _, err := engines[node].EstimateAll(context.Background(), x); err != nil {
					t.Fatal(err)
				}
			}
		}
		scan() // warm pass: fill every replica's cache partition
		h0, m0 := hits.Value(), misses.Value()
		for p := 0; p < passes; p++ {
			scan()
		}
		dh, dm := float64(hits.Value()-h0), float64(misses.Value()-m0)
		for _, e := range engines {
			e.Close()
		}
		if dh+dm != float64(passes*len(working)) {
			t.Fatalf("%d replicas: %v hits + %v misses, want %d lookups", n, dh, dm, passes*len(working))
		}
		ratios = append(ratios, dh/(dh+dm))
	}
	t.Logf("fleet hit ratio at 1/2/4 replicas: %.3f/%.3f/%.3f", ratios[0], ratios[1], ratios[2])
	if !(ratios[0] < ratios[1] && ratios[1] < ratios[2]) {
		t.Fatalf("hit ratio must rise strictly with replicas: %v", ratios)
	}
	if ratios[2] < 0.9 {
		t.Fatalf("hit ratio at 4 replicas = %.3f, want ≥ 0.9", ratios[2])
	}
}
