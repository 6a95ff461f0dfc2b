package tracescan

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzLoadTraces feeds arbitrary bytes to Load, the reader of trace logs
// gathered from other processes. Any input yields events or an error. On
// accepted events, Assemble, BuildReport and WriteText never panic, every
// assembled trace has its router event, and the joined replica events plus
// the orphans never outnumber the events loaded.
func FuzzLoadTraces(f *testing.F) {
	for _, doc := range []string{
		jl(routerOK, replicaOK),
		// Duplicate attempts: two ok attempts with the same n, and a replica
		// logged twice under one parent.
		jl(strings.Replace(routerOK, `"attempts":[`, `"attempts":[{"n":1,"replica":"http://b","outcome":"ok","us":1},`, 1),
			replicaOK, replicaOK),
		// A parent naming an attempt the router never made.
		jl(routerOK, strings.Replace(replicaOK, "t1/attempt.1", "t1/attempt.7", 1)),
		// Huge and negative stage times.
		jl(strings.Replace(routerOK, `"us":100}`, `"us":1e308}`, 2),
			strings.Replace(replicaOK, `"total_us":90`, `"total_us":-1e308`, 1)),
		jl(`{"event":"trace","trace_id":"n","role":"router","total_us":-5,"stages":[{"stage":"attempt.-1","us":-5}]}`),
		// Replica events with no router, and foreign events.
		jl(replicaOK, `{"event":"rollout.start","path":"m.bin"}`),
		"{broken\n",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Load(bytes.NewReader(data), "fuzz.jsonl")
		if err != nil {
			return
		}
		traces, orphans := Assemble(events, 50)
		joined := 0
		for _, tr := range traces {
			if tr.Router == nil {
				t.Fatalf("trace %q assembled without a router event", tr.ID)
			}
			joined += len(tr.Replicas)
		}
		if joined+orphans > len(events) {
			t.Fatalf("%d joined + %d orphan replica events from %d events", joined, orphans, len(events))
		}
		BuildReport(events, 50, 3).WriteText(io.Discard)
	})
}
