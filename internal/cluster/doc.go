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
//   - Prober: periodic /healthz + /metrics probes per replica (through the
//     shared obs scrape client, the same fleet-health semantics fleetstat
//     uses). A replica failing EjectAfter consecutive probes is ejected from
//     the ring; the first succeeding probe restores it.
//
//   - Router: the HTTP front. It proxies /estimate and /feedback to the
//     key's ring node with a bounded failover budget — 503 and connect
//     errors move to the next distinct ring node, Retry-After hints put the
//     rejecting replica in a short cooloff, X-Trace-Id is forwarded both
//     ways — and serves its own /healthz, /metrics, and /admin/rollout.
//     Drain flips /healthz to "draining" so load balancers stop sending
//     before the listener shuts down.
//
//   - Rollout: rolling model rollout across the fleet. A new model is
//     canaried onto one replica via its existing /admin/reload hot swap, the
//     canary's /drift q-error window is compared against the rest of the
//     fleet for a bake period, and the model is then promoted
//     replica-by-replica or rolled back. Every decision is journaled as
//     JSONL.
//
// The router is deliberately model-agnostic: it never decodes estimates,
// only the x routing key, so replicas stay the single source of truth
// for validation and inference.
package cluster
