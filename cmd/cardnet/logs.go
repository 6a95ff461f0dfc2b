package main

import (
	"errors"
	"log"

	"cardnet/internal/obs"
)

// derivedLogs maps each log flag whose "" value derives a path from -model
// to the suffix it appends. For every other log flag "" means off.
var derivedLogs = map[string]string{
	"trainlog":          ".train.jsonl",
	"autopilot-journal": ".autopilot.jsonl",
	"ckpt-dir":          ".ckpt",
}

// resolveLog maps the value of a log flag (or of -ckpt-dir or -profile-dir)
// named name to a path: "off" disables and gives "", "" takes the flag's
// default (derivedLogs, else off), and anything else is the path.
func resolveLog(name, val, modelPath string) string {
	switch val {
	case "off":
		return ""
	case "":
		if suffix, ok := derivedLogs[name]; ok {
			return modelPath + suffix
		}
		return ""
	}
	return val
}

// logs holds the close funcs of the JSONL logs one mode opens. close runs
// them in reverse order of opening and joins their errors, so none is
// dropped.
type logs []func() error

// open creates the JSONL sink the log flag name=val resolves to, or returns
// nil when it resolves to off. A file that cannot be created exits the
// process.
func (l *logs) open(name, val, modelPath string) *obs.Sink {
	path := resolveLog(name, val, modelPath)
	if path == "" {
		return nil
	}
	sink, err := obs.NewFileSink(path)
	if err != nil {
		log.Fatalf("open -%s: %v", name, err)
	}
	log.Printf("writing -%s to %s", name, path)
	*l = append(*l, sink.Close)
	return sink
}

// traces opens the -tracelog sink behind a trace sampler at rate (nil when
// either is off). Its close comes after the sink's in l, so it runs first:
// the sampler drains its queue before the sink closes.
func (l *logs) traces(val string, rate float64) *obs.TraceSampler {
	sampler := obs.NewTraceSampler(rate, l.open("tracelog", val, ""))
	*l = append(*l, sampler.Close)
	return sampler
}

// close closes every log, the last opened first.
func (l logs) close() error {
	var errs []error
	for i := len(l) - 1; i >= 0; i-- {
		errs = append(errs, l[i]())
	}
	return errors.Join(errs...)
}
