package main

import (
	"bytes"
	"net/http"
	"net/url"
	"testing"

	"cardnet/internal/cluster"
	"cardnet/internal/core"
)

// FuzzEstimateRequest drives any POST body or GET query through the
// replica's /estimate boundary, parseEstimateRequest then
// validateEstimateRequest, against a 4-feature, τmax-3 model. The result is
// an error or a request the engine can serve: x exactly InDim values in
// {0, 1}, and τ within [0, TauMax] unless the whole curve is asked for. It
// never panics. An accepted GET is served on the vector the router routed
// it by, so its key, cluster.KeyHash of cluster.ParseX of the query's x, is
// KeyHash(req.X).
func FuzzEstimateRequest(f *testing.F) {
	f.Add(true, []byte(`{"x":[1,0,1,1],"tau":3}`), "")
	f.Add(true, []byte(`{"x":[0,1,0,0],"all":true}`), "")
	f.Add(true, []byte(`{"x":[1,0,1,1],"tau":-1}`), "")
	f.Add(true, []byte(`{"x":[1,0,0.5,1],"tau":1}`), "")
	f.Add(true, []byte(`{"x":[1,0,1],"tau":1}`), "")
	f.Add(true, []byte(`{"x":`), "")
	f.Add(false, []byte(nil), "x=1,0,1,1&tau=2")
	f.Add(false, []byte(nil), "x=0,-0,%201,1&all=true")
	f.Add(false, []byte(nil), "x=1,,0,1,1&tau=0")
	f.Add(false, []byte(nil), "x=1,0,1,1&tau=4")
	f.Add(false, []byte(nil), "x=1,0,NaN,1&tau=1")
	f.Add(false, []byte(nil), "x=1,0,1e0,0x0&all=1")
	m := &core.Model{InDim: 4, Cfg: core.Config{TauMax: 3}}
	f.Fuzz(func(t *testing.T, post bool, body []byte, query string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/estimate", RawQuery: query}}
		if post {
			r, _ = http.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body))
		}
		req, err := parseEstimateRequest(r)
		if err == nil {
			err = validateEstimateRequest(req, m)
		}
		if err != nil {
			return
		}
		if len(req.X) != m.InDim {
			t.Fatalf("accepted x of %d features, model expects %d", len(req.X), m.InDim)
		}
		for i, v := range req.X {
			if v != 0 && v != 1 {
				t.Fatalf("accepted non-binary x[%d] = %v", i, v)
			}
		}
		if !req.All && (req.Tau == nil || *req.Tau < 0 || *req.Tau > m.Cfg.TauMax) {
			t.Fatalf("accepted tau %v outside [0, %d] without all", req.Tau, m.Cfg.TauMax)
		}
		if post {
			return
		}
		x, err := cluster.ParseX(r.URL.Query().Get("x"))
		if err != nil {
			t.Fatalf("replica accepted a GET the router rejects: %v", err)
		}
		if cluster.KeyHash(x) != cluster.KeyHash(req.X) {
			t.Fatalf("replica serves x %v, router routed on %v", req.X, x)
		}
	})
}
