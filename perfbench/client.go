package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/dist"
)

// client is one closed-loop caller on its own keep-alive connection, the
// way one optimizer thread reaches the estimator.
type client struct {
	hc    *http.Client
	base  string
	buf   bytes.Buffer
	spans *spanLog // nil unless this is a traced run
}

func newClient(base string, spans *spanLog) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, base: base, spans: spans}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errFailed marks an op that failed at the transport or HTTP level.
type errFailed struct{ msg string }

func (e errFailed) Error() string { return e.msg }

// errViolation marks an answer that breaks the estimator's contract: a
// non-finite or negative estimate, a τ-sweep that decreases, or a repeated
// (x, τ) answered differently within one model version.
type errViolation struct{ msg string }

func (e errViolation) Error() string { return e.msg }

// encodedX renders a query as the JSON array /estimate takes.
func encodedX(v dist.BitVector) []byte {
	b := make([]byte, 0, 2*v.Len+1)
	b = append(b, '[')
	for i := 0; i < v.Len; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if v.Bit(i) {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	return append(b, ']')
}

// estimate sends one POST /estimate for x at τ and returns the answer and
// the client-observed latency.
func (c *client) estimate(x []byte, tau int) (float64, time.Duration, error) {
	var r struct {
		Estimate *float64 `json:"estimate"`
	}
	lat, err := c.post(x, strconv.Itoa(tau), &r)
	if err != nil {
		return 0, lat, err
	}
	if r.Estimate == nil {
		return 0, lat, errFailed{"answer without an estimate"}
	}
	v := *r.Estimate
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return v, lat, errViolation{fmt.Sprintf("estimate %v at tau %d", v, tau)}
	}
	return v, lat, nil
}

// estimateAll sends one POST /estimate for x's whole τ-sweep.
func (c *client) estimateAll(x []byte) ([]float64, time.Duration, error) {
	var r struct {
		Estimates []float64 `json:"estimates"`
	}
	lat, err := c.post(x, "", &r)
	if err != nil {
		return nil, lat, err
	}
	if len(r.Estimates) != fixtureTauMax+1 {
		return nil, lat, errFailed{fmt.Sprintf("sweep of %d estimates, want %d", len(r.Estimates), fixtureTauMax+1)}
	}
	if !core.CurveMonotone(r.Estimates) {
		return r.Estimates, lat, errViolation{fmt.Sprintf("served sweep not monotone or not finite: %v", r.Estimates)}
	}
	return r.Estimates, lat, nil
}

// post sends {"x": x, "tau": tau} (or "all": true when tau is empty) and
// decodes a 2xx answer into out.
func (c *client) post(x []byte, tau string, out any) (time.Duration, error) {
	c.buf.Reset()
	c.buf.WriteString(`{"x":`)
	c.buf.Write(x)
	if tau == "" {
		c.buf.WriteString(`,"all":true}`)
	} else {
		c.buf.WriteString(`,"tau":` + tau + `}`)
	}
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/estimate", "application/json", bytes.NewReader(c.buf.Bytes()))
	if err != nil {
		return time.Since(start), errFailed{fmt.Sprintf("transport: %v", err)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	c.spans.add("http.estimate", start, lat)
	if err != nil {
		return lat, errFailed{fmt.Sprintf("read body: %v", err)}
	}
	if resp.StatusCode/100 != 2 {
		return lat, errFailed{fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))}
	}
	if err := json.Unmarshal(body, out); err != nil {
		return lat, errFailed{fmt.Sprintf("bad answer %q", bytes.TrimSpace(body))}
	}
	return lat, nil
}

// tally accumulates the outcome of a closed-loop phase across clients.
type tally struct {
	mu         sync.Mutex
	lat        latencies // per op, ms
	reqs       int64
	reqMs      float64 // client time summed over requests, ms
	attempted  int
	failed     int
	violations int
	firstErr   string
}

func (t *tally) record(opMs float64, reqs int, reqMs float64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.reqs += int64(reqs)
	t.reqMs += reqMs
	if err == nil {
		t.lat = append(t.lat, opMs)
		return
	}
	t.failed++
	if _, ok := err.(errViolation); ok {
		t.violations++
	}
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

// merge folds another phase's counts, but not its latencies, into t.
func (t *tally) merge(o *tally) {
	t.reqs += o.reqs
	t.reqMs += o.reqMs
	t.attempted += o.attempted
	t.failed += o.failed
	t.violations += o.violations
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// opFunc runs op i on c and reports how many requests it sent, their summed
// client time, and the first failure.
type opFunc func(c *client, i int) (reqs int, reqMs float64, err error)

// closedLoop runs the clients over ops 0..nOps-1, each taking the next op
// when its previous one completes, until lim says the phase is done or the
// ops run out.
func closedLoop(clients []*client, nOps int, lim limits, fn opFunc) (*tally, time.Duration) {
	t := &tally{}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= nOps || lim.done(time.Since(start), i) {
					return
				}
				opStart := time.Now()
				reqs, reqMs, err := fn(c, i)
				t.record(ms(time.Since(opStart)), reqs, reqMs, err)
				if lim.think > 0 {
					time.Sleep(lim.think)
				}
			}
		}(c)
	}
	wg.Wait()
	return t, time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
