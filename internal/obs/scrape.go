package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// RemoteSnapshot is one peer's scraped metric state: the flat
// canonical-series map ParsePrometheus produced, and the scrape or parse
// error if the peer was unreachable or emitted garbage (Series is nil in
// that case).
type RemoteSnapshot struct {
	Series map[string]float64
	Err    error
}

// maxScrapeBytes caps one peer's /metrics body, the same 8 MiB the cluster
// router puts on a proxied response. ParsePrometheus bounds line length but
// not line count, so without the cap one hostile or broken peer could make
// a scrape allocate without bound.
const maxScrapeBytes = 8 << 20

// scrapeClient is the default scrape client: short timeout so one dead
// peer cannot stall a whole sweep past its own deadline.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// GatherRemote scrapes each URL's Prometheus text exposition concurrently
// and returns one RemoteSnapshot per target, in input order. A nil client
// uses a default with a 5s timeout; ctx bounds all scrapes together. Errors
// are reported per snapshot, never returned — a half-reachable fleet still
// reports.
func GatherRemote(ctx context.Context, client *http.Client, urls []string) []RemoteSnapshot {
	if client == nil {
		client = scrapeClient
	}
	snaps := make([]RemoteSnapshot, len(urls))
	var wg sync.WaitGroup
	wg.Add(len(urls))
	for i, target := range urls {
		go func(i int, target string) {
			defer wg.Done()
			snaps[i].Series, snaps[i].Err = scrapeOne(ctx, client, target)
		}(i, target)
	}
	wg.Wait()
	return snaps
}

// scrapeOne fetches and parses one peer's /metrics. A body longer than
// maxScrapeBytes is an error, never a partial series map.
func scrapeOne(ctx context.Context, client *http.Client, target string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: scrape %s: status %d", target, resp.StatusCode)
	}
	series, err := parseScrape(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("obs: scrape %s: %w", target, err)
	}
	return series, nil
}

// parseScrape reads at most maxScrapeBytes of a /metrics body and parses it.
func parseScrape(r io.Reader) (map[string]float64, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxScrapeBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxScrapeBytes {
		return nil, fmt.Errorf("body exceeds %d bytes", maxScrapeBytes)
	}
	return ParsePrometheus(bytes.NewReader(body))
}

// SplitSeries parses a canonical series id — the key shape produced by
// FormatSeries and by ParsePrometheus results — back into its metric name and
// label set. Consumers of scraped series use it to read label values (le
// bounds) without re-tokenizing the exposition.
func SplitSeries(id string) (string, []Label, error) {
	i := 0
	for i < len(id) && isNameRune(id[i], i > 0) {
		i++
	}
	if i == 0 {
		return "", nil, fmt.Errorf("obs: invalid series id %q", id)
	}
	name := id[:i]
	if i == len(id) {
		return name, nil, nil
	}
	if id[i] != '{' {
		return "", nil, fmt.Errorf("obs: invalid series id %q", id)
	}
	labels, end, perr := parseLabelSet(id, i+1)
	if perr != nil || end != len(id) {
		return "", nil, fmt.Errorf("obs: invalid series id %q", id)
	}
	return name, labels, nil
}
