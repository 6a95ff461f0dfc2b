// Package cluster is the horizontal scale-out layer above the serving
// engine: a sharded multi-replica router that fronts N `cardnet serve`
// processes.
//
// The pieces:
//
//   - Ring: a consistent-hash ring with virtual nodes. /estimate traffic is
//     routed on KeyHash(x), the query alone: every τ of one x, and its
//     all=true curve, lands on the replica whose cache holds that query's
//     curve (replicas cache one curve per packed x), so each replica keeps
//     seeing the same slice of the keyspace and its LRU cache stays hot.
//     Adding or removing one of N replicas moves only ≈1/N of the keys.
//
//   - Prober: one /healthz GET per replica per sweep (through
//     obs.GatherJSON). A replica failing EjectAfter consecutive probes is
//     ejected from the ring; the first succeeding probe restores it. Each
//     replica's snapshot carries its health, SLO, drift, build and model
//     version, its estimate_requests, plus the QPS and p99 of the requests
//     it completed between the last two sweeps, from the e2e histogram on
//     its /healthz — the fleet view the router's /healthz serves.
//
//   - Router: the HTTP front. It proxies /estimate and /feedback to the
//     key's ring node with a bounded failover budget — 503 and connect
//     errors move to the next distinct ring node, Retry-After hints put the
//     rejecting replica in a short cooloff, X-Trace-Id is forwarded both
//     ways — and serves its own /healthz, /metrics, and /admin/rollout.
//     Drain flips /healthz to "draining" so load balancers stop sending
//     before the listener shuts down.
//
//   - Query: the estimate-family request both sides read. DecodeQuery
//     decodes a POST /estimate or /feedback body in one reflection-free
//     pass, and ParseX a GET query's x; the replica serves what they return
//     and the router routes on it, so the two cannot disagree on a body.
//
//   - Rollout: rolling model rollout across the fleet. A new model is
//     canaried onto one replica via its existing /admin/reload hot swap, the
//     canary's /drift q-error window is compared against the rest of the
//     fleet for a bake period, and the model is then promoted
//     replica-by-replica or rolled back. Every decision is journaled as
//     JSONL.
//
// The router is deliberately model-agnostic: it never decodes estimates
// and checks only that a body decodes, routing on its x, so replicas stay
// the single source of truth for validation and inference.
package cluster
