package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Prometheus text exposition content type served by
// /metrics when the scraper asks for it.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// OpenMetricsContentType is served when the scraper negotiates OpenMetrics —
// the exposition that carries per-bucket exemplars.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Label is one name="value" pair attached to a Prometheus series (an info
// metric's constant labels, a histogram bucket's le).
type Label struct {
	Name  string
	Value string
}

// WritePrometheus renders every metric in the registry in the Prometheus
// text exposition format (version 0.0.4), with no dependency on the
// Prometheus client library. Metric names are sanitized ('.' and any other
// invalid rune become '_'), output is sorted by metric name so the format is
// deterministic, histograms emit cumulative buckets with a trailing +Inf
// bucket plus _sum and _count series (explicit non-finite bounds are folded
// into that synthetic +Inf bucket rather than duplicating it), counters
// carry a _total suffix per the naming convention, and info series render as
// constant gauges with their label sets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the registry like WritePrometheus but appends
// OpenMetrics exemplars (`… # {trace_id="…"} value`) to histogram bucket
// lines whose bucket holds one, and terminates the exposition with `# EOF`.
// The base line grammar is unchanged, so the tests' reference parser
// round-trips both expositions.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}

// writeExposition is the shared renderer behind both exposition formats.
func (r *Registry) writeExposition(w io.Writer, exemplars bool) error {
	r.mu.RLock()
	type hist struct {
		name string
		h    *Histogram
	}
	counters := make(map[string]uint64, len(r.counts))
	for name, c := range r.counts {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	infos := make(map[string][]Label, len(r.infos))
	for name, ls := range r.infos {
		infos[name] = ls
	}
	hists := make([]hist, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, hist{name, h})
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(counters) {
		pn := PromName(name) + "_total"
		writeHeader(bw, pn, "counter", "counter "+name)
		bw.WriteString(pn)
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(counters[name], 10))
		bw.WriteByte('\n')
	}
	for _, name := range sortedKeys(gauges) {
		pn := PromName(name)
		writeHeader(bw, pn, "gauge", "gauge "+name)
		bw.WriteString(pn)
		bw.WriteByte(' ')
		bw.WriteString(formatPromValue(gauges[name]))
		bw.WriteByte('\n')
	}
	for _, name := range sortedKeys(infos) {
		pn := PromName(name)
		writeHeader(bw, pn, "gauge", "info "+name)
		bw.WriteString(FormatSeries(pn, infos[name]))
		bw.WriteString(" 1\n")
	}
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, e := range hists {
		pn := PromName(e.name)
		writeHeader(bw, pn, "histogram", "histogram "+e.name)
		s := e.h.Snapshot()
		for bi, b := range s.Buckets {
			if math.IsInf(b.UpperBound, 0) || math.IsNaN(b.UpperBound) {
				continue // the synthetic +Inf bucket below carries the total
			}
			bw.WriteString(pn)
			bw.WriteString(`_bucket{le="`)
			bw.WriteString(escapeLabel(formatPromValue(b.UpperBound)))
			bw.WriteString(`"} `)
			bw.WriteString(strconv.FormatUint(b.Count, 10))
			if exemplars {
				writeExemplar(bw, e.h, bi)
			}
			bw.WriteByte('\n')
		}
		bw.WriteString(pn)
		bw.WriteString(`_bucket{le="+Inf"} `)
		bw.WriteString(strconv.FormatUint(s.Count, 10))
		if exemplars {
			writeExemplar(bw, e.h, len(s.Buckets))
		}
		bw.WriteByte('\n')
		bw.WriteString(pn)
		bw.WriteString("_sum ")
		bw.WriteString(formatPromValue(s.Sum))
		bw.WriteByte('\n')
		bw.WriteString(pn)
		bw.WriteString("_count ")
		bw.WriteString(strconv.FormatUint(s.Count, 10))
		bw.WriteByte('\n')
	}
	if exemplars {
		bw.WriteString("# EOF\n")
	}
	return bw.Flush()
}

// writeExemplar appends bucket bi's exemplar to the current bucket line
// (` # {trace_id="…"} value`), writing nothing when the bucket has none.
func writeExemplar(bw *bufio.Writer, h *Histogram, bi int) {
	ex, ok := h.BucketExemplar(bi)
	if !ok {
		return
	}
	bw.WriteString(` # {trace_id="`)
	bw.WriteString(escapeLabel(ex.TraceID))
	bw.WriteString(`"} `)
	bw.WriteString(formatPromValue(ex.Value))
}

func writeHeader(bw *bufio.Writer, name, typ, help string) {
	bw.WriteString("# HELP ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(escapeHelp(help))
	bw.WriteString("\n# TYPE ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(typ)
	bw.WriteByte('\n')
}

// PromName sanitizes a registry metric name into the Prometheus metric name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*; every invalid rune maps to '_' and a
// leading digit is prefixed with '_'.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if valid {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// FormatSeries renders a series id from a metric name and labels in the
// canonical form this package uses as map keys: labels sorted by name, values
// escaped, no trailing comma. No labels yields the bare name. The name and
// label names are not sanitized here — callers pass already-valid ones.
func FormatSeries(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatPromValue renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP line: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, newline, double quote.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
