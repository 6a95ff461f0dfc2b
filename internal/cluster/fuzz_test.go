package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync/atomic"
	"testing"

	"cardnet/internal/obs"
)

// FuzzExtractKey: any POST body or GET query yields a routing key or an
// error, never a panic, and rewriting only its tau/all fields changes
// neither the outcome nor the key. A GET routes on KeyHash(ParseX(x)), the
// vector the replica serves. Seeds live in testdata/fuzz/FuzzExtractKey.
func FuzzExtractKey(f *testing.F) {
	f.Add([]byte(`{"x":[1,0,1,1],"tau":3}`), "x=1,0,1,1&tau=3", 7, false)
	f.Add([]byte(`{"x":[0,1],"all":true}`), "x=0,1&all=true", 0, true)
	f.Fuzz(func(t *testing.T, body []byte, query string, tau int, all bool) {
		_, key, err := ExtractKey(postRequest(body))
		// Prepend tau/all members to a JSON object body: the last "x" member
		// still decides the route, so the key must not move.
		var obj map[string]json.RawMessage
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); json.Unmarshal(body, &obj) == nil && obj != nil {
			fields := `{"tau":` + strconv.Itoa(tau) + `,"all":` + strconv.FormatBool(all)
			rewritten := []byte(fields + "}")
			if len(obj) > 0 {
				rewritten = append([]byte(fields+","), trimmed[1:]...)
			}
			_, key2, err2 := ExtractKey(postRequest(rewritten))
			checkSameRoute(t, "POST", key, err, key2, err2)
		}

		_, key, err = ExtractKey(getRequest(query))
		q, _ := url.ParseQuery(query) // keeps the pairs URL.Query keeps
		// A GET routes on ParseX of its x, the vector the replica serves.
		if x, perr := ParseX(q.Get("x")); (err == nil) != (perr == nil) || err == nil && key != KeyHash(x) {
			t.Fatalf("GET key %x (err %v) is not KeyHash(ParseX(x)) (err %v)", key, err, perr)
		}
		q.Set("tau", strconv.Itoa(tau))
		q.Set("all", strconv.FormatBool(all))
		_, key2, err2 := ExtractKey(getRequest(q.Encode()))
		checkSameRoute(t, "GET", key, err, key2, err2)
	})
}

func postRequest(body []byte) *http.Request {
	r, _ := http.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body))
	return r
}

func getRequest(rawQuery string) *http.Request {
	return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/estimate", RawQuery: rawQuery}}
}

func checkSameRoute(t *testing.T, method string, key uint64, err error, key2 uint64, err2 error) {
	t.Helper()
	if (err == nil) != (err2 == nil) {
		t.Fatalf("%s: rewriting tau/all changed the outcome: %v vs %v", method, err, err2)
	}
	if err == nil && key != key2 {
		t.Fatalf("%s: rewriting tau/all moved the key %x -> %x", method, key, key2)
	}
}

// FuzzReplicaHealthz serves a replica's /healthz two arbitrary bodies
// across two ProbeOnce sweeps. Nothing may panic; a body that is not one
// JSON object is a failed probe and any object a successful one; qps and
// p99_seconds stay finite and ≥ 0, and both are 0 unless the last two
// successful sweeps carried a well-formed e2e histogram. Seeds live in
// testdata/fuzz/FuzzReplicaHealthz: a restart, a changed bucket bound and
// an added bucket between sweeps, non-object bodies, negative cumulative
// counts, unsorted bounds and trailing data.
func FuzzReplicaHealthz(f *testing.F) {
	var body atomic.Pointer[[]byte]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(*body.Load())
	}))
	f.Cleanup(ts.Close)
	f.Fuzz(func(t *testing.T, first, second []byte) {
		p := NewProber([]string{ts.URL}, ProberConfig{EjectAfter: 1, Registry: obs.NewRegistry()})
		var last *obs.HistSnapshot
		for sweep, b := range [][]byte{first, second} {
			body.Store(&b)
			p.ProbeOnce(context.Background())
			st := p.Snapshot()[0]
			var doc map[string]any
			isObject := len(b) <= 1<<20 && json.Unmarshal(b, &doc) == nil && doc != nil
			if failed := st.LastErr != ""; failed == isObject || st.Healthy != isObject {
				t.Fatalf("sweep %d, body %q: healthy %v, last_err %q; body is a JSON object: %v", sweep, b, st.Healthy, st.LastErr, isObject)
			}
			for name, v := range map[string]float64{"qps": st.QPS, "p99_seconds": st.P99Seconds} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("sweep %d: %s = %v, want finite and ≥ 0", sweep, name, v)
				}
			}
			if !isObject {
				continue
			}
			cur := e2eSnapshot(doc)
			if (last == nil || cur == nil) && (st.QPS != 0 || st.P99Seconds != 0) {
				t.Fatalf("sweep %d: qps %v, p99 %v without two well-formed e2e histograms", sweep, st.QPS, st.P99Seconds)
			}
			last = cur
		}
	})
}

// FuzzRollout posts arbitrary bodies to the router's /admin/rollout while
// no replica is healthy. The answer is 503 (no replica to canary) when the
// body is at most 1 MiB of exactly one JSON value, with nothing after it,
// that decodes to a non-empty path, and 400 otherwise, never a panic; no
// refused body changes what GET /admin/rollout reports.
func FuzzRollout(f *testing.F) {
	for _, seed := range []string{
		`{"path":"m2.gob"}`,
		`{"path":"m2.gob","rollback_path":"m.gob"}`,
		`{"path":"m2.gob"} {"path":"m3.gob"}`,
		`{"PATH":"m2.gob"}`,
		`{"path":""}`,
		`{"path":1}`,
		`{}`,
		`null`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, err := New(Config{Replicas: []string{dead.URL}, EjectAfter: 1, Registry: obs.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rt.Close)
	rt.Prober().ProbeOnce(context.Background())
	if h := rt.Prober().Healthy(); len(h) != 0 {
		f.Fatalf("healthy replicas %v, want none", h)
	}
	h := rt.Handler()
	status := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/rollout", nil))
		return rec.Body.String()
	}
	idle := status()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/rollout", bytes.NewReader(body)))
		var req rolloutRequest
		want := http.StatusBadRequest
		if len(body) <= 1<<20 && json.Unmarshal(body, &req) == nil && req.Path != "" {
			want = http.StatusServiceUnavailable
		}
		if rec.Code != want || !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("body %q: status %d %s, want %d with a JSON error", body, rec.Code, rec.Body, want)
		}
		if got := status(); got != idle {
			t.Fatalf("body %q changed GET /admin/rollout:\n%s\nwas:\n%s", body, got, idle)
		}
	})
}
