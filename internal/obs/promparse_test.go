package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file holds the Prometheus text parser the tests use as the writer's
// round-trip reference. No production code reads exposition text: the
// cluster prober reads each replica's /healthz JSON instead.

// ParsePrometheus parses text-exposition output into a flat map of canonical
// series id ("name" or `name{a="b",le="…"}`, labels sorted by name) → value.
// Label sets are fully parsed
// (escape sequences \\, \", \n decoded; anything else rejected), a trailing
// integer timestamp is tolerated, and any malformed line fails with its line
// and column position. It enforces the 0.0.4 line grammar rather than the
// full OpenMetrics spec.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" || strings.HasPrefix(text, "#") {
			continue
		}
		id, v, perr := parseSampleLine(text)
		if perr != nil {
			perr.line = line
			return nil, perr
		}
		if _, dup := out[id]; dup {
			return nil, &promParseError{line: line, col: 1, msg: "duplicate series", text: text}
		}
		out[id] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSampleLine parses one sample line "name{labels} value [timestamp]"
// into a canonical series id and value. The returned error has its column
// set; the caller fills in the line number.
func parseSampleLine(text string) (string, float64, *promParseError) {
	fail := func(col int, msg string) (string, float64, *promParseError) {
		return "", 0, &promParseError{col: col + 1, msg: msg, text: text}
	}
	i := 0
	// Metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
	for i < len(text) && isNameRune(text[i], i > 0) {
		i++
	}
	if i == 0 {
		return fail(0, "invalid metric name")
	}
	name := text[:i]
	var labels []Label
	if i < len(text) && text[i] == '{' {
		var perr *promParseError
		labels, i, perr = parseLabelSet(text, i+1)
		if perr != nil {
			return "", 0, perr
		}
	}
	if i >= len(text) || (text[i] != ' ' && text[i] != '\t') {
		return fail(i, "expected space before value")
	}
	for i < len(text) && (text[i] == ' ' || text[i] == '\t') {
		i++
	}
	rest := text[i:]
	// An OpenMetrics exemplar (` # {…} value`) may trail the sample; neither
	// the value token nor a timestamp can contain '#', so strip from the
	// first one. Exposition comments never reach here (leading-# lines are
	// skipped by the caller).
	if j := strings.IndexByte(rest, '#'); j >= 0 {
		rest = strings.TrimRight(rest[:j], " \t")
	}
	valTok := rest
	if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		valTok = rest[:sp]
		// Anything after the value must be a plain integer timestamp.
		ts := strings.TrimSpace(rest[sp:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return fail(i+sp+1, "trailing garbage after value (not a timestamp)")
		}
	}
	if valTok == "" {
		return fail(i, "no value")
	}
	v, err := strconv.ParseFloat(valTok, 64)
	if err != nil {
		return fail(i, "bad value")
	}
	return FormatSeries(name, labels), v, nil
}

// parseLabelSet parses `k="v",…}` starting just past the opening brace and
// returns the labels and the index just past the closing brace.
func parseLabelSet(text string, i int) ([]Label, int, *promParseError) {
	fail := func(col int, msg string) ([]Label, int, *promParseError) {
		return nil, 0, &promParseError{col: col + 1, msg: msg, text: text}
	}
	var labels []Label
	for {
		if i >= len(text) {
			return fail(i, "unterminated label set")
		}
		if text[i] == '}' { // {} and trailing commas are legal
			return labels, i + 1, nil
		}
		start := i
		for i < len(text) && isLabelNameRune(text[i], i > start) {
			i++
		}
		if i == start {
			return fail(i, "invalid label name")
		}
		lname := text[start:i]
		if i >= len(text) || text[i] != '=' {
			return fail(i, "expected '=' after label name")
		}
		i++
		if i >= len(text) || text[i] != '"' {
			return fail(i, "expected '\"' to open label value")
		}
		i++
		var val strings.Builder
		for {
			if i >= len(text) {
				return fail(i, "unterminated label value")
			}
			c := text[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(text) {
					return fail(i, "dangling escape in label value")
				}
				switch text[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return fail(i, "unknown escape in label value")
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: lname, Value: val.String()})
		if i < len(text) && text[i] == ',' {
			i++
			continue
		}
		if i < len(text) && text[i] == '}' {
			return labels, i + 1, nil
		}
		return fail(i, "expected ',' or '}' after label")
	}
}

// ParseExemplars extracts the OpenMetrics exemplars from an exposition: a
// map of canonical series id (the `…_bucket{le="…"}` line the exemplar
// trails) → exemplar. Lines without exemplars are skipped; malformed
// exemplar payloads fail with position info like ParsePrometheus.
func ParseExemplars(r io.Reader) (map[string]Exemplar, error) {
	out := make(map[string]Exemplar)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" || strings.HasPrefix(text, "#") {
			continue
		}
		hash := strings.Index(text, " # {")
		if hash < 0 {
			continue
		}
		id, _, perr := parseSampleLine(text[:hash])
		if perr != nil {
			perr.line = line
			return nil, perr
		}
		labels, j, perr := parseLabelSet(text, hash+len(" # {"))
		if perr != nil {
			perr.line = line
			return nil, perr
		}
		valTok := strings.TrimSpace(text[j:])
		if sp := strings.IndexAny(valTok, " \t"); sp >= 0 {
			valTok = valTok[:sp] // ignore an optional exemplar timestamp
		}
		v, err := strconv.ParseFloat(valTok, 64)
		if err != nil {
			return nil, &promParseError{line: line, col: j + 1, msg: "bad exemplar value", text: text}
		}
		ex := Exemplar{Value: v}
		for _, l := range labels {
			if l.Name == "trace_id" {
				ex.TraceID = l.Value
			}
		}
		out[id] = ex
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func isNameRune(c byte, notFirst bool) bool {
	return c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(notFirst && c >= '0' && c <= '9')
}

func isLabelNameRune(c byte, notFirst bool) bool {
	return c == '_' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(notFirst && c >= '0' && c <= '9')
}

type promParseError struct {
	line int
	col  int
	msg  string
	text string
}

func (e *promParseError) Error() string {
	return "obs: prometheus parse line " + strconv.Itoa(e.line) + " col " + strconv.Itoa(e.col) + ": " + e.msg + ": " + e.text
}

// SplitSeries parses a canonical series id — the key shape produced by
// FormatSeries and by ParsePrometheus results — back into its metric name and
// label set.
func SplitSeries(id string) (string, []Label, error) {
	i := 0
	for i < len(id) && isNameRune(id[i], i > 0) {
		i++
	}
	if i == 0 {
		return "", nil, fmt.Errorf("obs: invalid series id %q", id)
	}
	name := id[:i]
	if i == len(id) {
		return name, nil, nil
	}
	if id[i] != '{' {
		return "", nil, fmt.Errorf("obs: invalid series id %q", id)
	}
	labels, end, perr := parseLabelSet(id, i+1)
	if perr != nil || end != len(id) {
		return "", nil, fmt.Errorf("obs: invalid series id %q", id)
	}
	return name, labels, nil
}
