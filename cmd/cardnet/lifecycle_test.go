package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"cardnet/internal/cluster"
	"cardnet/internal/serving"
)

// testListener binds a loopback port for runServe or runRouter; cleanup
// closes it in case the run never reached Serve.
func testListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// waitFor polls cond every 2ms and fails the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// noKeepAlive dials a fresh connection per request, so a request answered
// proves the listener still accepts.
var noKeepAlive = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

// healthzStatus GETs url/healthz and returns its "status" field ("" on any
// failure).
func healthzStatus(url string) string {
	resp, err := noKeepAlive.Get(url + "/healthz")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var h struct{ Status string }
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return ""
	}
	return h.Status
}

// TestServeShutdownFinishesInFlightTrace cancels serve's context while a
// sampled /estimate is in flight (its handler waits on the rest of the
// body). The listener closes, yet the request still gets a 200 — so the
// engine closed only after Shutdown — and once the logs close, the trace
// JSONL holds that request's trace.
func TestServeShutdownFinishesInFlightTrace(t *testing.T) {
	m := tinyModel(3)
	tracePath := t.TempDir() + "/traces.jsonl"
	var lg logs
	sampler := lg.traces(tracePath, 1)
	ln := testListener(t)
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- runServe(ctx, ln, m, serving.Config{}, serving.PlanConfig{}, serveOptions{sampler: sampler})
	}()
	waitFor(t, "serve to answer /healthz", func() bool { return healthzStatus(url) != "" })

	body := fmt.Sprintf(`{"x":[%s],"tau":2}`, strings.Join(binXStrings(m), ","))
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	started := mEstimateRequests.Value()
	half := len(body) / 2
	fmt.Fprintf(conn, "POST /estimate HTTP/1.1\r\nHost: cardnet\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:half])
	waitFor(t, "the /estimate handler to start", func() bool { return mEstimateRequests.Value() > started })

	cancel()
	waitFor(t, "the listener to close", func() bool {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	select {
	case err := <-errc:
		t.Fatalf("runServe returned %v with a request in flight", err)
	default:
	}
	if _, err := conn.Write([]byte(body[half:])); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK || traceID == "" {
		t.Fatalf("in-flight request: status %d, trace id %q; want 200 with a trace id", resp.StatusCode, traceID)
	}
	if err := <-errc; err != nil {
		t.Fatalf("runServe: %v", err)
	}
	if err := lg.close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var tr struct {
			TraceID string `json:"trace_id"`
		}
		if json.Unmarshal([]byte(line), &tr) == nil && tr.TraceID == traceID {
			return
		}
	}
	t.Fatalf("trace %s missing from the trace log:\n%s", traceID, raw)
}

// TestRouterDrainBeforeListenerCloses cancels the router's context and
// checks that /healthz answers "draining" on fresh connections before the
// listener closes, and that runRouter returns cleanly after the grace.
func TestRouterDrainBeforeListenerCloses(t *testing.T) {
	replica, _ := newTestServer(t, tinyModel(3), serving.Config{})
	ln := testListener(t)
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- runRouter(ctx, ln, routerSettings{
			replicas:      replica.URL,
			vnodes:        cluster.DefaultVNodes,
			probeInterval: time.Hour,
			ejectAfter:    3,
		})
	}()
	waitFor(t, "the router to answer /healthz ok", func() bool { return healthzStatus(url) == "ok" })

	cancel()
	waitFor(t, "/healthz to read draining", func() bool { return healthzStatus(url) == "draining" })
	if err := <-errc; err != nil {
		t.Fatalf("runRouter: %v", err)
	}
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("listener still open after runRouter returned")
	}
}
