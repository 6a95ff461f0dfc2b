package main

import (
	"log"
	"time"

	"cardnet/internal/obs"
	"cardnet/internal/obs/profcap"
	"cardnet/internal/obs/slo"
)

// telemetrySettings is the flag-shaped configuration of the serve-mode SLO
// tracker and triggered profiler, collected so buildTelemetry has one
// argument instead of thirteen.
type telemetrySettings struct {
	latencyBound  float64 // seconds
	latencyTarget float64
	availTarget   float64
	fastWindow    time.Duration
	slowWindow    time.Duration
	interval      time.Duration
	sink          *obs.Sink // -slolog transition log (nil = off)

	profileDir      string // "" or "off" disables triggered capture
	profileRetain   int
	profileCooldown time.Duration
	profileCPU      time.Duration
	profileP99      float64 // seconds; 0 = no p99 trigger
}

// buildTelemetry wires the SLO tracker to the triggered profiler: entering
// page state captures a CPU+heap pair attributed "page", and (when a p99
// threshold is set) a fast-window p99 breach captures one attributed "p99".
// Every transition is logged, and appended to the -slolog sink when set.
func buildTelemetry(ts telemetrySettings) (*slo.Tracker, *profcap.Capturer) {
	var profiler *profcap.Capturer
	if dir := resolveLog("profile-dir", ts.profileDir, ""); dir != "" {
		var err error
		profiler, err = profcap.New(profcap.Config{
			Dir:         dir,
			Retain:      ts.profileRetain,
			Cooldown:    ts.profileCooldown,
			CPUDuration: ts.profileCPU,
		})
		if err != nil {
			log.Fatalf("profile capture: %v", err)
		}
		log.Printf("triggered profiling to %s (retain %d pairs, cooldown %s)",
			dir, ts.profileRetain, ts.profileCooldown)
	}

	cfg := slo.Config{
		Interval:     ts.interval,
		FastWindow:   ts.fastWindow,
		SlowWindow:   ts.slowWindow,
		P99Threshold: ts.profileP99,
		Sink:         ts.sink,
		Objectives:   defaultSLOObjectives(ts.latencyBound, ts.latencyTarget, ts.availTarget),
		OnTransition: func(tr slo.Transition) {
			log.Printf("slo: %s %s -> %s (burn fast %.2f, slow %.2f)",
				tr.Objective, tr.From, tr.To, tr.FastBurn, tr.SlowBurn)
			if profiler != nil && tr.To == slo.StatePage.String() {
				profiler.Trigger("page")
			}
		},
	}
	if profiler != nil && ts.profileP99 > 0 {
		cfg.OnP99 = func(objective string, p99 float64) {
			profiler.Trigger("p99")
		}
	}
	return slo.New(cfg), profiler
}
