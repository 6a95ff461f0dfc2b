package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"cardnet/internal/cluster"
	"cardnet/internal/obs"
)

// routerDrainGrace is how long a draining router keeps serving after
// SIGTERM before closing the listener: long enough for load balancers
// polling /healthz to see "draining" and stop sending new traffic.
const routerDrainGrace = 2 * time.Second

// routerSettings carries the -mode router flag values into runRouter.
type routerSettings struct {
	replicas        string // comma-separated replica base URLs
	vnodes          int
	probeInterval   time.Duration
	ejectAfter      int
	retries         int
	bake            time.Duration
	maxRegression   float64
	rolloutMinSamps int
	journal         *obs.Sink         // rollout decisions (nil = off)
	sampler         *obs.TraceSampler // sampled request traces (nil = off)
}

// runRouter fronts the replica fleet on ln until ctx ends or SIGINT/SIGTERM
// arrives, then drains gracefully: /healthz flips to "draining" for the
// grace period while the listener still accepts, in-flight proxied
// requests finish, and the prober and rollout controller stop.
func runRouter(ctx context.Context, ln net.Listener, rs routerSettings) error {
	rt, err := cluster.New(cluster.Config{
		Replicas:      strings.Split(rs.replicas, ","),
		VNodes:        rs.vnodes,
		Retries:       rs.retries,
		ProbeInterval: rs.probeInterval,
		EjectAfter:    rs.ejectAfter,
		Sampler:       rs.sampler,
		Rollout: cluster.RolloutConfig{
			Bake:          rs.bake,
			MaxRegression: rs.maxRegression,
			MinSamples:    rs.rolloutMinSamps,
			Journal:       rs.journal,
		},
	})
	if errors.Is(err, cluster.ErrNoReplicas) {
		return fmt.Errorf("router needs -replicas (comma-separated replica base URLs)")
	}
	if err != nil {
		return err
	}
	replicas := rt.Ring().Nodes() // before Start: probes may eject some
	rt.Start()
	defer rt.Close()

	log.Printf("routing %d replicas on %s (vnodes=%d retries=%d probe=%s eject-after=%d)",
		len(replicas), ln.Addr(), rt.Ring().VNodes(), rs.retries, rs.probeInterval, rs.ejectAfter)
	log.Printf("replicas: %s", strings.Join(replicas, ", "))
	log.Printf("endpoints: POST/GET /estimate, POST /feedback, GET/POST /admin/rollout, /metrics, /healthz")
	return serveHTTP(ctx, ln, rt.Handler(), func() {
		log.Printf("draining for %s before closing the listener", routerDrainGrace)
		rt.Drain()
		time.Sleep(routerDrainGrace)
	})
}
