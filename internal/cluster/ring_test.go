package cluster

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testKeys returns n well-spread deterministic keys.
func testKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = mix64(uint64(i) + 0x9e3779b97f4a7c15)
	}
	return keys
}

// TestRingDistributionUniform is the ±10% property from the issue: at >=100
// virtual nodes, every replica's share of a large key population stays
// within 10% of uniform.
func TestRingDistributionUniform(t *testing.T) {
	for _, nodes := range []int{2, 3, 4, 8} {
		r := NewRing(DefaultVNodes)
		for i := 0; i < nodes; i++ {
			r.Add(fmt.Sprintf("http://10.0.0.%d:8089", i+1))
		}
		keys := testKeys(200_000)
		counts := map[string]int{}
		for _, k := range keys {
			n, ok := r.Lookup(k)
			if !ok {
				t.Fatal("lookup on populated ring failed")
			}
			counts[n]++
		}
		want := float64(len(keys)) / float64(nodes)
		for n, c := range counts {
			dev := math.Abs(float64(c)-want) / want
			if dev > 0.10 {
				t.Errorf("nodes=%d: %s owns %d keys, want %.0f ±10%% (dev %.1f%%)", nodes, n, c, want, dev*100)
			}
		}
		if len(counts) != nodes {
			t.Errorf("nodes=%d: only %d nodes received keys", nodes, len(counts))
		}
	}
}

// TestRingMinimalMovement checks consistent hashing's defining property:
// removing one of N replicas moves ≈1/N of the keys (all of them keys the
// removed node owned — no reshuffle among survivors), and adding it back
// restores the original assignment exactly.
func TestRingMinimalMovement(t *testing.T) {
	const nodes = 5
	r := NewRing(DefaultVNodes)
	members := make([]string, nodes)
	for i := range members {
		members[i] = fmt.Sprintf("http://10.0.0.%d:8089", i+1)
		r.Add(members[i])
	}
	keys := testKeys(50_000)
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i], _ = r.Lookup(k)
	}

	victim := members[2]
	r.Remove(victim)
	moved := 0
	for i, k := range keys {
		after, _ := r.Lookup(k)
		if after == before[i] {
			continue
		}
		moved++
		if before[i] != victim {
			t.Fatalf("key %d moved from surviving node %s to %s", k, before[i], after)
		}
		if after == victim {
			t.Fatalf("key %d still routed to removed node", k)
		}
	}
	frac := float64(moved) / float64(len(keys))
	want := 1.0 / nodes
	if frac < want*0.8 || frac > want*1.2 {
		t.Errorf("removal moved %.3f of keys, want ≈%.3f (±20%%)", frac, want)
	}

	// Adding the node back restores the exact original assignment: the
	// ring's vnode positions are deterministic functions of the member name.
	r.Add(victim)
	for i, k := range keys {
		after, _ := r.Lookup(k)
		if after != before[i] {
			t.Fatalf("key %d not restored after re-add: %s != %s", k, after, before[i])
		}
	}
}

// TestRingSuccessors checks the failover candidate walk: primary first
// (same as Lookup), all distinct, capped at the member count.
func TestRingSuccessors(t *testing.T) {
	r := NewRing(64)
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	for _, m := range members {
		r.Add(m)
	}
	for _, k := range testKeys(500) {
		primary, _ := r.Lookup(k)
		succ := r.Successors(k, 5)
		if len(succ) != len(members) {
			t.Fatalf("got %d successors, want %d", len(succ), len(members))
		}
		if succ[0] != primary {
			t.Fatalf("successors[0]=%s, Lookup=%s", succ[0], primary)
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("duplicate successor %s", s)
			}
			seen[s] = true
		}
	}
}

// TestRingEmptyAndSingle covers the degenerate shapes the router can see
// mid-outage.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(0)
	if r.VNodes() != DefaultVNodes {
		t.Fatalf("vnodes=%d, want default %d", r.VNodes(), DefaultVNodes)
	}
	if _, ok := r.Lookup(42); ok {
		t.Fatal("lookup on empty ring succeeded")
	}
	if s := r.Successors(42, 3); s != nil {
		t.Fatalf("successors on empty ring: %v", s)
	}
	r.Add("http://only:1")
	r.Add("http://only:1") // idempotent
	if r.Len() != 1 {
		t.Fatalf("len=%d after duplicate add", r.Len())
	}
	if n, _ := r.Lookup(42); n != "http://only:1" {
		t.Fatalf("lookup=%s", n)
	}
	r.Remove("http://absent:1") // no-op
	if r.Len() != 1 {
		t.Fatal("removing a non-member changed the ring")
	}
}

// TestKeyHashAffinity checks the routing key is a pure function of x and
// actually separates different queries.
func TestKeyHashAffinity(t *testing.T) {
	x1 := []float64{1, 0, 1, 1, 0, 0, 1, 0}
	x2 := []float64{1, 0, 1, 1, 0, 0, 1, 1}
	if KeyHash(x1) != KeyHash(append([]float64(nil), x1...)) {
		t.Fatal("same x hashed differently")
	}
	if KeyHash(x1) == KeyHash(x2) {
		t.Fatal("different x hashed identically")
	}
}

// binaryX returns the 64-feature binary expansion of i.
func binaryX(i uint64) []float64 {
	x := make([]float64, 64)
	for b := range x {
		x[b] = float64((i >> b) & 1)
	}
	return x
}

// TestRouteKeyIgnoresTau: every τ and the all=true curve request of one x,
// over POST and GET, extract the same key and so the same failover list —
// the whole curve of a query lives on one replica.
func TestRouteKeyIgnoresTau(t *testing.T) {
	r := NewRing(64)
	for _, m := range []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"} {
		r.Add(m)
	}
	for i := uint64(0); i < 50; i++ {
		x := binaryX(mix64(i))
		parts := make([]string, len(x))
		for j, v := range x {
			parts[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		csv := strings.Join(parts, ",")
		reqs := []*http.Request{
			httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(`{"x":[`+csv+`],"all":true}`)),
			httptest.NewRequest(http.MethodGet, "/estimate?all=true&x="+csv, nil),
		}
		for tau := 0; tau <= 20; tau++ {
			reqs = append(reqs,
				httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(fmt.Sprintf(`{"x":[%s],"tau":%d}`, csv, tau))),
				httptest.NewRequest(http.MethodGet, fmt.Sprintf("/estimate?x=%s&tau=%d", csv, tau), nil))
		}
		want := r.Successors(KeyHash(x), 4)
		for _, req := range reqs {
			_, key, err := extractKey(req)
			if err != nil {
				t.Fatalf("%s %s: %v", req.Method, req.URL, err)
			}
			if got := r.Successors(key, 4); !slices.Equal(got, want) {
				t.Fatalf("%s %s routed to %v, x alone to %v", req.Method, req.URL, got, want)
			}
		}
	}
}

// TestKeyHashDistinctXUniform is the ±10% property on real routing keys:
// distinct binary queries spread evenly over the replicas.
func TestKeyHashDistinctXUniform(t *testing.T) {
	const n = 100_000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = KeyHash(binaryX(mix64(uint64(i))))
	}
	for _, nodes := range []int{2, 4, 8} {
		r := NewRing(DefaultVNodes)
		for i := 0; i < nodes; i++ {
			r.Add(fmt.Sprintf("http://10.0.0.%d:8089", i+1))
		}
		counts := map[string]int{}
		for _, k := range keys {
			node, _ := r.Lookup(k)
			counts[node]++
		}
		want := float64(n) / float64(nodes)
		for node, c := range counts {
			if dev := math.Abs(float64(c)-want) / want; dev > 0.10 {
				t.Errorf("nodes=%d: %s owns %d queries, want %.0f ±10%% (dev %.1f%%)", nodes, node, c, want, dev*100)
			}
		}
		if len(counts) != nodes {
			t.Errorf("nodes=%d: only %d nodes received queries", nodes, len(counts))
		}
	}
}
