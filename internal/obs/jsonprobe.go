package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// JSONSnapshot is one peer's fetched JSON status document (a /healthz or
// /drift body): the decoded top-level object, and the fetch or decode
// error if the peer was unreachable or answered garbage (Doc is nil in
// that case).
type JSONSnapshot struct {
	Doc map[string]any
	Err error
}

// maxJSONBytes caps one peer's status document.
const maxJSONBytes = 1 << 20

// scrapeClient is the default peer client: short timeout so one dead peer
// cannot stall a whole sweep past its own deadline.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// GatherJSON fetches each URL concurrently and decodes a single top-level
// JSON object per target, returning one JSONSnapshot per URL in input order.
// A nil client uses the shared 5s-timeout default, so fleet health
// semantics (timeouts, per-peer error isolation) cannot diverge between the
// cluster health prober and the rollout controller.
// Errors are reported per snapshot, never returned.
func GatherJSON(ctx context.Context, client *http.Client, urls []string) []JSONSnapshot {
	snaps := make([]JSONSnapshot, len(urls))
	var wg sync.WaitGroup
	wg.Add(len(urls))
	for i, target := range urls {
		go func(i int, target string) {
			defer wg.Done()
			snaps[i].Doc, snaps[i].Err = FetchJSON(ctx, client, target)
		}(i, target)
	}
	wg.Wait()
	return snaps
}

// FetchJSON GETs one URL and decodes its body as a JSON object. A nil client
// uses the shared 5s-timeout client. Non-200 statuses, oversized bodies
// (>1 MiB), malformed JSON, trailing data and any top-level value that is
// not an object (null included) are errors.
func FetchJSON(ctx context.Context, client *http.Client, target string) (map[string]any, error) {
	if client == nil {
		client = scrapeClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain a little so the connection can be reused, then report.
		io.CopyN(io.Discard, resp.Body, 4096)
		return nil, fmt.Errorf("obs: fetch %s: status %d", target, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxJSONBytes+1))
	if err != nil {
		return nil, fmt.Errorf("obs: fetch %s: %w", target, err)
	}
	if len(body) > maxJSONBytes {
		return nil, fmt.Errorf("obs: fetch %s: body exceeds %d bytes", target, maxJSONBytes)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("obs: fetch %s: %w", target, err)
	}
	if doc == nil {
		return nil, fmt.Errorf("obs: fetch %s: body is not a JSON object", target)
	}
	return doc, nil
}
