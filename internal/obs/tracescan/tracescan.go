// Package tracescan assembles sampled JSONL trace logs from a cardnet fleet
// — the router's and every replica's — into end-to-end cross-process traces,
// and reports where the time went.
//
// The join key is the fleet trace ID: the router mints (or adopts) one per
// request, stamps it on X-Trace-Id, and forwards it with an attempt-span
// parent (X-Trace-Parent: <id>/attempt.N); each replica opens its own stage
// trace under that ID. One assembled trace therefore holds one router event
// (stages route → pick → attempt.N* → proxy → relay, tiled to its e2e by
// construction) and the replica events that served its attempts (stages
// admission → … → write, tiled to the replica-observed total). The gap
// between the router's proxy stage and the matched replica's total is the
// network/stack time between the two processes.
//
// Assembly also verifies the tiling invariant survived serialization: a
// router event's stages must sum to its total, and a replica must not
// observe more time than the router attributed to proxying it (beyond a
// configurable clock-skew tolerance).
package tracescan

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cardnet/internal/obs"
)

// Stage is one tiled pipeline stage of a trace event, the type the trace
// was written from.
type Stage = obs.TraceStage

// Attempt is one router forward attempt (the retry/failover amplification
// record).
type Attempt struct {
	N       int     `json:"n"`
	Replica string  `json:"replica"`
	Outcome string  `json:"outcome"` // ok | rejected_503 | unreachable | deadline
	Us      float64 `json:"us"`
}

// Event is one JSONL trace line as emitted by obs.TraceSampler: one process's
// view of one request.
type Event struct {
	TS        string    `json:"ts"`
	Event     string    `json:"event"`
	TraceID   string    `json:"trace_id"`
	Role      string    `json:"role"` // router | replica
	Parent    string    `json:"parent,omitempty"`
	TotalUs   float64   `json:"total_us"`
	Status    int       `json:"status,omitempty"`
	Failovers int       `json:"failovers,omitempty"`
	Stages    []Stage   `json:"stages"`
	Attempts  []Attempt `json:"attempts,omitempty"`
	File      string    `json:"file,omitempty"` // provenance, set by Load
}

// StageSum returns the sum of the event's stage durations (µs).
func (e *Event) StageSum() float64 {
	var s float64
	for _, st := range e.Stages {
		s += st.Us
	}
	return s
}

// Load reads trace events from one JSONL stream, skipping non-trace events
// (rollout journal lines, SLO transitions, and blank lines share sinks in
// some deployments). Malformed JSON is an error: a corrupt trace log should
// fail loudly, not silently shrink the report.
func Load(r io.Reader, file string) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("tracescan: %s:%d: %w", file, lineNo, err)
		}
		if ev.Event != "trace" || ev.TraceID == "" {
			continue
		}
		if ev.Role == "" { // pre-propagation logs: routers carry attempts
			if len(ev.Attempts) > 0 {
				ev.Role = "router"
			} else {
				ev.Role = "replica"
			}
		}
		ev.File = file
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tracescan: %s: %w", file, err)
	}
	return out, nil
}

// LoadFiles loads and concatenates trace events from the given paths.
func LoadFiles(paths []string) ([]Event, error) {
	var all []Event
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("tracescan: %w", err)
		}
		evs, err := Load(f, p)
		f.Close()
		if err != nil {
			return nil, err
		}
		all = append(all, evs...)
	}
	return all, nil
}

// Trace is one assembled end-to-end request: the router's view plus the
// replica views joined on the fleet trace ID.
type Trace struct {
	ID       string   `json:"trace_id"`
	Router   *Event   `json:"router,omitempty"`
	Replicas []*Event `json:"replicas,omitempty"`

	TotalUs   float64 `json:"total_us"` // router-observed e2e
	ProxyUs   float64 `json:"proxy_us"` // router's successful-attempt stage
	ReplicaUs float64 `json:"replica_us,omitempty"`
	NetworkUs float64 `json:"network_us,omitempty"` // ProxyUs − matched replica total
	Attempts  int     `json:"attempts"`
	Failovers int     `json:"failovers"`
	Status    int     `json:"status"`

	// TilingErrUs is |Σ router stages − router total|: zero by construction,
	// nonzero only if serialization or a code change broke the invariant.
	TilingErrUs float64 `json:"tiling_err_us"`
	// SkewUs is how far the matched replica overshot the router's proxy
	// window (max(0, −NetworkUs)); beyond the tolerance it's a violation.
	SkewUs   float64 `json:"skew_us"`
	TilingOK bool    `json:"tiling_ok"`
}

// tilingEpsUs bounds float accumulation noise when re-summing stages that
// tiled exactly in nanoseconds before JSON marshaling.
const tilingEpsUs = 0.5

// Assemble joins events into traces. skewUs is the clock-skew tolerance: a
// replica may appear up to this much slower than the router's proxy stage
// before the trace is flagged. Returned traces all have a router event;
// orphans counts replica events whose trace ID no router event claimed.
func Assemble(events []Event, skewUs float64) (traces []*Trace, orphans int) {
	byID := make(map[string]*Trace)
	var order []string
	for i := range events {
		ev := &events[i]
		tr := byID[ev.TraceID]
		if tr == nil {
			tr = &Trace{ID: ev.TraceID}
			byID[ev.TraceID] = tr
			order = append(order, ev.TraceID)
		}
		if ev.Role == "router" {
			tr.Router = ev
		} else {
			tr.Replicas = append(tr.Replicas, ev)
		}
	}
	for _, id := range order {
		tr := byID[id]
		if tr.Router == nil {
			orphans += len(tr.Replicas)
			continue
		}
		rt := tr.Router
		tr.TotalUs = rt.TotalUs
		tr.Status = rt.Status
		tr.Failovers = rt.Failovers
		tr.Attempts = len(rt.Attempts) // zero on paths that never forwarded
		for _, st := range rt.Stages {
			if st.Name == "proxy" {
				tr.ProxyUs = st.Us
			}
		}
		tr.TilingErrUs = abs(rt.StageSum() - rt.TotalUs)
		tr.TilingOK = tr.TilingErrUs <= tilingEpsUs
		if rep := tr.matchReplica(); rep != nil {
			tr.ReplicaUs = rep.TotalUs
			tr.NetworkUs = tr.ProxyUs - rep.TotalUs
			if tr.NetworkUs < 0 {
				tr.SkewUs = -tr.NetworkUs
				if tr.SkewUs > skewUs {
					tr.TilingOK = false
				}
			}
		}
		traces = append(traces, tr)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].ID < traces[j].ID })
	return traces, orphans
}

// matchReplica picks the replica event that served the successful attempt:
// by parent span when the replica recorded one, else the replica with the
// largest observed total (the one that did the work).
func (tr *Trace) matchReplica() *Event {
	okParent := ""
	for _, a := range tr.Router.Attempts {
		if a.Outcome == "ok" {
			okParent = tr.ID + "/attempt." + itoa(a.N)
		}
	}
	var best *Event
	for _, rep := range tr.Replicas {
		if okParent != "" && rep.Parent == okParent {
			return rep
		}
		if best == nil || rep.TotalUs > best.TotalUs {
			best = rep
		}
	}
	if okParent != "" && best == nil {
		return nil
	}
	return best
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
