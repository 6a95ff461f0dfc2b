package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
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
	journalPath     string // "off" disables the rollout journal
	rolloutMinSamps int
	traceRate       float64
	traceLog        string // "off" disables sampled request traces
}

// runRouter blocks fronting the replica fleet on addr until SIGINT/SIGTERM,
// then drains gracefully: /healthz flips to "draining", in-flight proxied
// requests finish, and the prober and rollout controller stop.
func runRouter(addr string, rs routerSettings) error {
	var journal *obs.Sink
	if rs.journalPath != "" && rs.journalPath != "off" {
		sink, err := obs.NewFileSink(rs.journalPath)
		if err != nil {
			return fmt.Errorf("open rollout journal: %w", err)
		}
		journal = sink
		defer func() {
			if err := sink.Close(); err != nil {
				log.Printf("close rollout journal: %v", err)
			}
		}()
		log.Printf("journaling rollout decisions to %s", rs.journalPath)
	}

	var sampler *obs.TraceSampler
	if rs.traceLog != "" && rs.traceLog != "off" {
		sink, err := obs.NewFileSink(rs.traceLog)
		if err != nil {
			return fmt.Errorf("open trace log: %w", err)
		}
		defer func() {
			if err := sink.Close(); err != nil {
				log.Printf("close trace log: %v", err)
			}
		}()
		sampler = obs.NewTraceSampler(rs.traceRate, sink)
		defer sampler.Close() // LIFO: drains the queue before the sink close above
		log.Printf("writing sampled request traces to %s (rate %g); join replica trace logs with `cardnet -mode tracescan`", rs.traceLog, rs.traceRate)
	}

	rt, err := cluster.New(cluster.Config{
		Replicas:      strings.Split(rs.replicas, ","),
		VNodes:        rs.vnodes,
		Retries:       rs.retries,
		ProbeInterval: rs.probeInterval,
		EjectAfter:    rs.ejectAfter,
		Sampler:       sampler,
		Rollout: cluster.RolloutConfig{
			Bake:          rs.bake,
			MaxRegression: rs.maxRegression,
			MinSamples:    rs.rolloutMinSamps,
			Journal:       journal,
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
		len(replicas), addr, rt.Ring().VNodes(), rs.retries, rs.probeInterval, rs.ejectAfter)
	log.Printf("replicas: %s", strings.Join(replicas, ", "))
	log.Printf("endpoints: POST/GET /estimate, POST /feedback, GET/POST /admin/rollout, /metrics, /healthz")

	srv := &http.Server{
		Addr:              addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining for %s, then closing", routerDrainGrace)
	rt.Drain()
	time.Sleep(routerDrainGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
