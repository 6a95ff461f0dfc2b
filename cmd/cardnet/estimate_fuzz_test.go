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
// never panics. Whatever the replica parses, the router accepts too and
// routes on the vector the replica serves: cluster.ExtractKey's key is
// cluster.KeyHash(req.X), for a POST body as for a GET query.
func FuzzEstimateRequest(f *testing.F) {
	f.Add(true, []byte(`{"x":[1,0,1,1],"tau":3}`), "")
	f.Add(true, []byte(`{"x":[0,1,0,0],"all":true}`), "")
	f.Add(true, []byte(`{"x":[1,0,1,1],"tau":-1}`), "")
	f.Add(true, []byte(`{"x":[1,0,0.5,1],"tau":1}`), "")
	f.Add(true, []byte(`{"x":[1,0,1],"tau":1}`), "")
	f.Add(true, []byte(`{"x":`), "")
	f.Add(true, []byte(`{"x":[1,0,1,1],"tau":1}garbage`), "")
	f.Add(true, []byte(`{"x":[1,null,0,1],"tau":1}`), "")
	f.Add(true, []byte(`{"X":[1,0,1,1],"\u0078":[0,-0,1e0,1],"TAU":2}`), "")
	f.Add(false, []byte(nil), "x=1,0,1,1&tau=2")
	f.Add(false, []byte(nil), "x=0,-0,%201,1&all=true")
	f.Add(false, []byte(nil), "x=1,,0,1,1&tau=0")
	f.Add(false, []byte(nil), "x=1,0,1,1&tau=4")
	f.Add(false, []byte(nil), "x=1,0,NaN,1&tau=1")
	f.Add(false, []byte(nil), "x=1,0,1e0,0x0&all=1")
	m := &core.Model{InDim: 4, Cfg: core.Config{TauMax: 3}}
	f.Fuzz(func(t *testing.T, post bool, body []byte, query string) {
		newRequest := func() *http.Request {
			if post {
				r, _ := http.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body))
				return r
			}
			return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/estimate", RawQuery: query}}
		}
		req, err := parseEstimateRequest(newRequest())
		if err != nil {
			return
		}
		_, key, err := cluster.ExtractKey(newRequest())
		if err != nil {
			t.Fatalf("replica parsed a request the router refuses: %v", err)
		}
		if key != cluster.KeyHash(req.X) {
			t.Fatalf("replica serves x %v, router routed on another vector", req.X)
		}
		if validateEstimateRequest(req, m) != nil {
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
		if !req.All && (!req.HasTau || req.Tau < 0 || req.Tau > m.Cfg.TauMax) {
			t.Fatalf("accepted tau %d (given: %v) outside [0, %d] without all", req.Tau, req.HasTau, m.Cfg.TauMax)
		}
	})
}
