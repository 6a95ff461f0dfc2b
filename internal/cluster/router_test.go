package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cardnet/internal/obs"
	"cardnet/internal/obs/slo"
)

// newTestRouter fronts the given fake replicas with a router whose metrics
// live in a private registry.
func newTestRouter(t *testing.T, cfg Config, reps ...*fakeReplica) (*Router, *httptest.Server) {
	t.Helper()
	for _, r := range reps {
		cfg.Replicas = append(cfg.Replicas, r.base())
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts
}

// estimateBody builds a distinct /estimate POST body per index.
func estimateBody(i int) string {
	x := make([]string, 8)
	for b := 0; b < 8; b++ {
		x[b] = fmt.Sprint((i >> b) & 1)
	}
	return fmt.Sprintf(`{"x":[%s],"tau":%d}`, strings.Join(x, ","), i%5)
}

// postRouter POSTs one estimate and returns status, replica id from the
// body, and the response X-Trace-Id.
func postRouter(t *testing.T, url, body string, hdr map[string]string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/estimate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var doc struct {
		Replica string `json:"replica"`
	}
	json.Unmarshal(raw, &doc)
	return resp.StatusCode, doc.Replica, resp.Header.Get("X-Trace-Id")
}

// TestRouterAffinity checks cache-affine routing: the same (x, τ) always
// lands on the same replica, and a spread of keys reaches every replica.
func TestRouterAffinity(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	_, ts := newTestRouter(t, Config{}, reps...)

	owner := map[int]string{}
	for round := 0; round < 3; round++ {
		for i := 0; i < 60; i++ {
			code, rep, _ := postRouter(t, ts.URL, estimateBody(i), nil)
			if code != http.StatusOK {
				t.Fatalf("status=%d", code)
			}
			if prev, ok := owner[i]; ok && prev != rep {
				t.Fatalf("key %d moved %s -> %s with a stable fleet", i, prev, rep)
			}
			owner[i] = rep
		}
	}
	for _, r := range reps {
		if r.estimateCount() == 0 {
			t.Errorf("replica %s received no traffic across 60 keys", r.id)
		}
	}
}

// TestRouterGetRoutesLikePost checks both wire forms of the same query
// produce the same routing decision.
func TestRouterGetRoutesLikePost(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	_, ts := newTestRouter(t, Config{}, reps...)
	for i := 0; i < 20; i++ {
		_, postRep, _ := postRouter(t, ts.URL, estimateBody(i), nil)
		x := make([]string, 8)
		for b := 0; b < 8; b++ {
			x[b] = fmt.Sprint((i >> b) & 1)
		}
		resp, err := http.Get(fmt.Sprintf("%s/estimate?x=%s&tau=%d", ts.URL, strings.Join(x, ","), i%5))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Replica string `json:"replica"`
		}
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if doc.Replica != postRep {
			t.Fatalf("key %d: GET routed to %s, POST to %s", i, doc.Replica, postRep)
		}
	}
}

// TestRouterFailoverOn503 checks the bounded failover path: an overloaded
// primary answers 503 + Retry-After, the router moves to the next ring node
// and the client sees 200; the Retry-After hint then keeps the overloaded
// replica out of the preferred set.
func TestRouterFailoverOn503(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	reg := obs.NewRegistry()
	_, ts := newTestRouter(t, Config{Registry: reg}, a, b)

	// Find a key owned by a specific replica, then overload that replica.
	var body, primary string
	for i := 0; i < 50; i++ {
		code, rep, _ := postRouter(t, ts.URL, estimateBody(i), nil)
		if code != http.StatusOK {
			t.Fatalf("status=%d", code)
		}
		body, primary = estimateBody(i), rep
		break
	}
	over, other := a, b
	if primary == "b" {
		over, other = b, a
	}
	over.overloaded.Store(true)
	beforeOther := other.estimateCount()

	code, rep, _ := postRouter(t, ts.URL, body, nil)
	if code != http.StatusOK || rep != other.id {
		t.Fatalf("failover: status=%d replica=%s, want 200 via %s", code, rep, other.id)
	}
	if reg.Counter("cluster.failovers").Value() == 0 {
		t.Fatal("failover not counted")
	}
	if other.estimateCount() != beforeOther+1 {
		t.Fatalf("other replica served %d, want %d", other.estimateCount(), beforeOther+1)
	}
	// The failover's parent span names the second attempt's stage.
	other.mu.Lock()
	parent := other.parents[len(other.parents)-1]
	other.mu.Unlock()
	if !strings.HasSuffix(parent, "/attempt.2") {
		t.Fatalf("failover forwarded parent %q, want .../attempt.2", parent)
	}

	// Cooloff honored: the next request for the same key skips the
	// overloaded primary without paying the 503 round trip.
	overBefore := reg.Counter("cluster.retry_after.cooloffs").Value()
	if overBefore == 0 {
		t.Fatal("Retry-After cooloff not recorded")
	}
	code, rep, _ = postRouter(t, ts.URL, body, nil)
	if code != http.StatusOK || rep != other.id {
		t.Fatalf("cooloff routing: status=%d replica=%s", code, rep)
	}
	if got := reg.Counter("cluster.retry_after.cooloffs").Value(); got != overBefore {
		t.Fatalf("cooloff re-recorded (%d -> %d): primary was retried during cooloff", overBefore, got)
	}
}

// TestRouterAllOverloadedPropagates503 checks exhaustion: when every
// candidate rejects, the client gets the fleet's 503 with its Retry-After
// rather than a synthetic error.
func TestRouterAllOverloadedPropagates503(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	_, ts := newTestRouter(t, Config{}, a, b)
	a.overloaded.Store(true)
	b.overloaded.Store(true)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/estimate", strings.NewReader(estimateBody(1)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("Retry-After not propagated on fleet-wide overload")
	}
}

// TestRouterTraceIDForwarding checks the propagation contract: the client's
// X-Trace-Id is adopted as the fleet trace ID, forwarded to the replica with
// an attempt-span parent, and stamped on the response — even though the
// (rogue) fake replica answers with its own trace header, which must not
// leak through the relay.
func TestRouterTraceIDForwarding(t *testing.T) {
	a := newFakeReplica(t, "a")
	_, ts := newTestRouter(t, Config{}, a)
	code, _, tid := postRouter(t, ts.URL, estimateBody(3), map[string]string{"X-Trace-Id": "client-trace-7"})
	if code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if tid != "client-trace-7" {
		t.Fatalf("response trace id %q, want the adopted fleet id", tid)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.traceIDs) != 1 || a.traceIDs[0] != "client-trace-7" {
		t.Fatalf("replica saw trace ids %v, want [client-trace-7]", a.traceIDs)
	}
	if len(a.parents) != 1 || a.parents[0] != "client-trace-7/attempt.1" {
		t.Fatalf("replica saw parents %v, want [client-trace-7/attempt.1]", a.parents)
	}
}

// TestRouterMintsTraceIDOnErrorPaths is the regression for error responses
// leaving without a trace ID: every router response path — including
// no-replicas 503, bad-request 400, and retry-exhausted relays — must carry
// a minted X-Trace-Id when the client sent none.
func TestRouterMintsTraceIDOnErrorPaths(t *testing.T) {
	a := newFakeReplica(t, "a")
	rt, ts := newTestRouter(t, Config{}, a)

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, resp.Header.Get("X-Trace-Id")
	}

	// Happy path with no client trace: minted.
	resp, tid := post(estimateBody(1))
	if resp.StatusCode != http.StatusOK || tid == "" {
		t.Fatalf("ok path: status=%d trace=%q", resp.StatusCode, tid)
	}
	// Bad request (malformed body).
	resp, tid = post("{not json")
	if resp.StatusCode != http.StatusBadRequest || tid == "" {
		t.Fatalf("bad-request path: status=%d trace=%q", resp.StatusCode, tid)
	}
	// Retry-exhausted relay of the fleet's 503.
	a.overloaded.Store(true)
	resp, tid = post(estimateBody(2))
	if resp.StatusCode != http.StatusServiceUnavailable || tid == "" {
		t.Fatalf("exhausted path: status=%d trace=%q", resp.StatusCode, tid)
	}
	a.overloaded.Store(false)
	// No healthy replicas.
	rt.ring.Remove(a.base())
	resp, tid = post(estimateBody(3))
	if resp.StatusCode != http.StatusServiceUnavailable || tid == "" {
		t.Fatalf("no-replicas path: status=%d trace=%q", resp.StatusCode, tid)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no-replicas 503 lost Retry-After")
	}
}

// TestRouterKillReplicaZeroVisible5xx is the failover acceptance test:
// killing one of two replicas mid-traffic yields zero client-visible 5xx —
// connect errors fail over within the retry budget while the prober ejects
// the corpse.
func TestRouterKillReplicaZeroVisible5xx(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	rt, ts := newTestRouter(t, Config{ProbeInterval: 10 * time.Millisecond, EjectAfter: 2}, a, b)
	rt.Start()

	const calls = 300
	var wg sync.WaitGroup
	var mu sync.Mutex
	bad := map[int]int{}
	clients := 4
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls/clients; i++ {
				n := c*(calls/clients) + i
				if c == 0 && i == (calls/clients)/3 {
					b.ts.CloseClientConnections()
					b.ts.Close() // hard kill mid-traffic
				}
				code, _, _ := postRouter(t, ts.URL, estimateBody(n%64), nil)
				if code >= 500 {
					mu.Lock()
					bad[code]++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	if len(bad) != 0 {
		t.Fatalf("client-visible 5xx during replica kill: %v", bad)
	}
	// The prober should have ejected the dead replica from the ring.
	deadline := time.Now().Add(2 * time.Second)
	for rt.Ring().Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dead replica never ejected (ring size %d)", rt.Ring().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterHealthzAndMetrics checks the router's own observability
// endpoints: healthz shape, drain flip, and /metrics content negotiation.
func TestRouterHealthzAndMetrics(t *testing.T) {
	a := newFakeReplica(t, "a")
	rt, ts := newTestRouter(t, Config{}, a)
	rt.Prober().ProbeOnce(context.Background())

	get := func(path, accept string) (*http.Response, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, string(raw)
	}

	resp, body := get("/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status=%d", resp.StatusCode)
	}
	var hz struct {
		Status   string          `json:"status"`
		RingSize int             `json:"ring_size"`
		Replicas []ReplicaHealth `json:"replicas"`
		Rollout  RolloutStatus   `json:"rollout"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.RingSize != 1 || len(hz.Replicas) != 1 || hz.Rollout.State != RolloutIdle {
		t.Fatalf("healthz=%s", body)
	}

	rt.Drain()
	_, body = get("/healthz", "")
	if !strings.Contains(body, `"status":"draining"`) {
		t.Fatalf("draining healthz=%s", body)
	}

	postRouter(t, ts.URL, estimateBody(1), nil)
	_, body = get("/metrics", "text/plain")
	if !strings.Contains(body, "cluster_requests") || !strings.Contains(body, "cluster_ring_size") {
		t.Fatalf("prometheus metrics missing cluster series:\n%s", body)
	}
	resp, body = get("/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default metrics content type %q", ct)
	}
	if !strings.Contains(body, "cluster.requests") {
		t.Fatalf("json metrics missing cluster.requests:\n%s", body)
	}
}

// e2eHist is a replica's serving.e2e.seconds snapshot as its /healthz
// carries it: cumulative counts at the 1ms, 10ms and 100ms bounds, and the
// total.
func e2eHist(cum [3]int, count int) obs.HistSnapshot {
	s := obs.HistSnapshot{Count: uint64(count)}
	for i, le := range []float64{0.001, 0.01, 0.1} {
		s.Buckets = append(s.Buckets, obs.Bucket{UpperBound: le, Count: uint64(cum[i])})
	}
	return s
}

// TestRouterHealthzFleetView checks that one GET of the router's /healthz
// shows, for every replica: reachability with the probe error, health, SLO,
// drift, build, model version, and the QPS and p99 of the requests that
// completed between the last two probe sweeps.
func TestRouterHealthzFleetView(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, ts := newTestRouter(t, Config{EjectAfter: 1, Replicas: []string{dead.URL}}, a, b)
	script := func(f *fakeReplica, hz map[string]any, cum [3]int, count int) {
		f.mu.Lock()
		hz["e2e"] = e2eHist(cum, count)
		f.hzExtra = hz
		f.mu.Unlock()
	}
	hzA := map[string]any{"version": "v1.2", "git_sha": "0123456789abcdef", "slo": "warn",
		"drift": map[string]any{"status": "retrain-recommended"}}
	hzB := map[string]any{"version": "dev", "git_sha": "unknown", "slo": "ok",
		"drift": map[string]any{"status": "ok"}}
	script(a, hzA, [3]int{10, 20, 30}, 30)
	script(b, hzB, [3]int{1, 2, 3}, 3)

	ctx := context.Background()
	t0 := time.Now()
	rt.Prober().ProbeOnce(ctx)
	t1 := time.Now()
	for _, st := range rt.Prober().Snapshot() {
		if st.QPS != 0 || st.P99Seconds != 0 {
			t.Fatalf("%s has rates after one sweep: %+v", st.Base, st)
		}
	}
	// Between the sweeps a completes 110 requests (deltas 0, 30, 80 in the
	// finite buckets, none over 100ms) and b completes 9, two of them slow.
	script(a, hzA, [3]int{10, 50, 140}, 140)
	script(b, hzB, [3]int{2, 4, 10}, 12)
	time.Sleep(20 * time.Millisecond)
	t2 := time.Now()
	rt.Prober().ProbeOnce(ctx)
	t3 := time.Now()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Configured int              `json:"configured"`
		Replicas   []map[string]any `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Configured != 3 || len(hz.Replicas) != 3 {
		t.Fatalf("configured %d, %d replicas", hz.Configured, len(hz.Replicas))
	}
	byBase := map[string]map[string]any{}
	for _, r := range hz.Replicas {
		byBase[r["base"].(string)] = r
	}

	bounds := []float64{0.001, 0.01, 0.1}
	for _, want := range []struct {
		rep          *fakeReplica
		build, slo   string
		drift        string
		served       float64
		bucketDeltas []float64
	}{
		{a, "v1.2 (01234567)", "warn", "retrain-recommended", 110, []float64{0, 30, 80, 0}},
		{b, "dev (unknown)", "ok", "ok", 9, []float64{1, 1, 5, 2}},
	} {
		r := byBase[want.rep.base()]
		if r["healthy"] != true || r["status"] != "ok" || r["last_err"] != nil {
			t.Fatalf("%s reachability: %v", want.rep.id, r)
		}
		if r["build"] != want.build || r["slo"] != want.slo || r["drift"] != want.drift || r["model_version"] != 1.0 {
			t.Fatalf("%s healthz fields: %v", want.rep.id, r)
		}
		if p99 := slo.BucketQuantile(bounds, want.bucketDeltas, 0.99); r["p99_seconds"] != p99 {
			t.Fatalf("%s p99_seconds = %v, want %v", want.rep.id, r["p99_seconds"], p99)
		}
		// The prober timed the sweeps somewhere inside [t0, t1] and [t2, t3].
		qps, _ := r["qps"].(float64)
		if lo, hi := want.served/t3.Sub(t0).Seconds(), want.served/t2.Sub(t1).Seconds(); qps < lo || qps > hi {
			t.Fatalf("%s qps = %v, want within [%v, %v]", want.rep.id, qps, lo, hi)
		}
	}

	d := byBase[dead.URL]
	if d["healthy"] != false || d["last_err"] == nil || d["last_err"] == "" {
		t.Fatalf("dead replica: %v", d)
	}
}

// TestNewNormalizesReplicas checks that New trims and normalizes replica
// entries, drops blanks and folds duplicates, and that /healthz's
// configured count, the ring, the prober and the configured gauge agree.
func TestNewNormalizesReplicas(t *testing.T) {
	reg := obs.NewRegistry()
	rt, err := New(Config{Registry: reg, Replicas: strings.Split(
		" host1:8089, http://host2:9/ ,, https://host3 ,host1:8089/,http://host2:9", ",")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	want := []string{"http://host1:8089", "http://host2:9", "https://host3"}
	if got := rt.Ring().Nodes(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("ring nodes %v, want %v", got, want)
	}
	if n := len(rt.Prober().Snapshot()); n != len(want) {
		t.Fatalf("prober tracks %d replicas, want %d", n, len(want))
	}
	if g := reg.Gauge("cluster.replicas.configured").Value(); g != float64(len(want)) {
		t.Fatalf("configured gauge %v, want %d", g, len(want))
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hz struct {
		Configured int `json:"configured"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil || hz.Configured != len(want) {
		t.Fatalf("healthz configured %d (err %v), want %d", hz.Configured, err, len(want))
	}

	if _, err := New(Config{Registry: reg, Replicas: []string{" ", ""}}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("blank replica list: err %v, want ErrNoReplicas", err)
	}
}

// TestRouterRejectsUnroutable checks the router's own 4xx surface.
func TestRouterRejectsUnroutable(t *testing.T) {
	a := newFakeReplica(t, "a")
	_, ts := newTestRouter(t, Config{}, a)
	resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status=%d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/estimate", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad method status=%d, want 400", resp.StatusCode)
	}
}

// TestRouterNoReplicasConfigured checks New's validation.
func TestRouterNoReplicasConfigured(t *testing.T) {
	if _, err := New(Config{Registry: obs.NewRegistry()}); err != ErrNoReplicas {
		t.Fatalf("err=%v, want ErrNoReplicas", err)
	}
}
