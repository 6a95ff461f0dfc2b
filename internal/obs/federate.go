package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// RemoteSnapshot is one peer's scraped metric state: an instance label
// identifying the peer, the flat canonical-series map ParsePrometheus
// produced, and the scrape or parse error if the peer was unreachable or
// emitted garbage (Series is nil in that case).
type RemoteSnapshot struct {
	Instance string
	Series   map[string]float64
	Err      error
}

// maxScrapeBytes caps one peer's /metrics body, the same 8 MiB the cluster
// router puts on a proxied response. ParsePrometheus bounds line length but
// not line count, so without the cap one hostile or broken peer could make
// a scrape allocate without bound.
const maxScrapeBytes = 8 << 20

// federateClient is the default scrape client: short timeout so one dead
// peer cannot stall a federation request past its own deadline.
var federateClient = &http.Client{Timeout: 5 * time.Second}

// GatherRemote scrapes each URL's Prometheus text exposition concurrently
// and returns one RemoteSnapshot per target, in input order. The instance
// label is the URL's host:port. A nil client uses a default with a 5s
// timeout; ctx bounds all scrapes together. Errors are reported per
// snapshot, never returned — a half-reachable fleet still federates.
func GatherRemote(ctx context.Context, client *http.Client, urls []string) []RemoteSnapshot {
	if client == nil {
		client = federateClient
	}
	snaps := make([]RemoteSnapshot, len(urls))
	var wg sync.WaitGroup
	wg.Add(len(urls))
	for i, target := range urls {
		go func(i int, target string) {
			defer wg.Done()
			snaps[i] = scrapeOne(ctx, client, target)
		}(i, target)
	}
	wg.Wait()
	return snaps
}

// scrapeOne fetches and parses one peer's /metrics. A body longer than
// maxScrapeBytes is a snapshot error, never a partial series map.
func scrapeOne(ctx context.Context, client *http.Client, target string) RemoteSnapshot {
	snap := RemoteSnapshot{Instance: instanceLabel(target)}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		snap.Err = err
		return snap
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := client.Do(req)
	if err != nil {
		snap.Err = err
		return snap
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snap.Err = fmt.Errorf("obs: scrape %s: status %d", target, resp.StatusCode)
		return snap
	}
	series, err := parseScrape(resp.Body)
	if err != nil {
		snap.Err = fmt.Errorf("obs: scrape %s: %w", target, err)
		return snap
	}
	snap.Series = series
	return snap
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

// instanceLabel derives the instance label from a scrape URL: host:port when
// the URL parses, the raw string otherwise.
func instanceLabel(target string) string {
	if u, err := url.Parse(target); err == nil && u.Host != "" {
		return u.Host
	}
	return target
}

// WriteFederated merges snapshots into one Prometheus text exposition: every
// series gains an instance label naming its origin (a pre-existing instance
// label — a peer that itself federates — is renamed exported_instance, the
// Prometheus convention), and each snapshot contributes a federate_up series
// (1 scraped clean, 0 errored). That series wins over a peer's own bare
// federate_up, the one peer id it collides with. Output is sorted, carries
// no HELP/TYPE headers (per-instance types are the origin's business), and
// re-parses cleanly through ParsePrometheus — the round trip a downstream
// federator depends on.
func WriteFederated(w io.Writer, snaps []RemoteSnapshot) error {
	merged := make(map[string]float64)
	for _, s := range snaps {
		up := 0.0
		if s.Err == nil {
			up = 1
			for id, v := range s.Series {
				nid, err := addInstance(id, s.Instance)
				if err != nil {
					continue // unparseable id from a hand-built snapshot: drop
				}
				merged[nid] = v
			}
		}
		merged[FormatSeries("federate_up", []Label{{Name: "instance", Value: s.Instance}})] = up
	}
	ids := sortedKeys(merged)
	for _, id := range ids {
		if _, err := fmt.Fprintf(w, "%s %s\n", id, formatPromValue(merged[id])); err != nil {
			return err
		}
	}
	return nil
}

// addInstance rewrites a canonical series id to carry instance=inst,
// renaming a pre-existing instance label to exported_instance.
func addInstance(id, inst string) (string, error) {
	name, labels, err := splitSeriesID(id)
	if err != nil {
		return "", err
	}
	for i := range labels {
		if labels[i].Name == "instance" {
			labels[i].Name = "exported_instance"
		}
	}
	labels = append(labels, Label{Name: "instance", Value: inst})
	return FormatSeries(name, labels), nil
}

// SplitSeries parses a canonical series id — the key shape produced by
// FormatSeries and by ParsePrometheus results — back into its metric name and
// label set. Consumers of federated or scraped series use it to read label
// values (le bounds, instance names) without re-tokenizing the exposition.
func SplitSeries(id string) (string, []Label, error) { return splitSeriesID(id) }

// splitSeriesID parses a canonical series id back into name and labels.
func splitSeriesID(id string) (string, []Label, error) {
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
