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
	logPath       string // "off" disables the transition log

	profileDir      string // "off" disables triggered capture
	profileRetain   int
	profileCooldown time.Duration
	profileCPU      time.Duration
	profileP99      float64 // seconds; 0 = no p99 trigger
}

// buildTelemetry wires the SLO tracker to the triggered profiler: entering
// page state captures a CPU+heap pair attributed "page", and (when a p99
// threshold is set) a fast-window p99 breach captures one attributed "p99".
// Every transition is logged; with -slolog it is also appended to a JSONL
// sink whose close func is returned. The sink itself is returned too, so the
// autopilot can mirror its swap/reject decisions into the same transition
// stream (nil when -slolog is off).
func buildTelemetry(ts telemetrySettings) (*slo.Tracker, *profcap.Capturer, *obs.Sink, func()) {
	var profiler *profcap.Capturer
	if ts.profileDir != "" && ts.profileDir != "off" {
		var err error
		profiler, err = profcap.New(profcap.Config{
			Dir:         ts.profileDir,
			Retain:      ts.profileRetain,
			Cooldown:    ts.profileCooldown,
			CPUDuration: ts.profileCPU,
		})
		if err != nil {
			log.Fatalf("profile capture: %v", err)
		}
		log.Printf("triggered profiling to %s (retain %d pairs, cooldown %s)",
			ts.profileDir, ts.profileRetain, ts.profileCooldown)
	}

	closeLog := func() {}
	var sink *obs.Sink
	if ts.logPath != "" && ts.logPath != "off" {
		s, err := obs.NewFileSink(ts.logPath)
		if err != nil {
			log.Fatalf("open slo log: %v", err)
		}
		sink = s
		closeLog = func() {
			if err := s.Close(); err != nil {
				log.Printf("close slo log: %v", err)
			}
		}
		log.Printf("writing SLO transitions to %s", ts.logPath)
	}

	cfg := slo.Config{
		Interval:     ts.interval,
		FastWindow:   ts.fastWindow,
		SlowWindow:   ts.slowWindow,
		P99Threshold: ts.profileP99,
		Sink:         sink,
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
	return slo.New(cfg), profiler, sink, closeLog
}
