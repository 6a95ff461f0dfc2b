package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// promFixture builds a registry with every metric kind, including names that
// need sanitizing and values that need careful formatting.
func promFixture() *Registry {
	r := NewRegistry()
	r.Counter("serving.requests").Add(42)
	r.Counter("http.errors") // zero-valued counters still expose
	r.Gauge("serving.queue.depth").Set(3.5)
	r.Gauge("weird-name.1ü").Set(-1.25)
	h := r.Histogram("latency.seconds", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 7} {
		h.Observe(v)
	}
	r.Histogram("empty.seconds", []float64{1, 2})
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := promFixture().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("prometheus output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWritePrometheusRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := promFixture().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("self-emitted exposition failed to parse: %v", err)
	}
	want := map[string]float64{
		"serving_requests_total":             42,
		"http_errors_total":                  0,
		"serving_queue_depth":                3.5,
		"weird_name_1_":                      -1.25,
		`latency_seconds_bucket{le="0.001"}`: 1,
		`latency_seconds_bucket{le="0.01"}`:  3,
		`latency_seconds_bucket{le="0.1"}`:   4,
		`latency_seconds_bucket{le="+Inf"}`:  5,
		"latency_seconds_count":              5,
		`empty_seconds_bucket{le="+Inf"}`:    0,
		"empty_seconds_count":                0,
		"empty_seconds_sum":                  0,
	}
	for k, v := range want {
		got, ok := series[k]
		if !ok {
			t.Errorf("series %q missing from exposition", k)
			continue
		}
		if got != v {
			t.Errorf("series %q = %v, want %v", k, got, v)
		}
	}
	sum := series["latency_seconds_sum"]
	if math.Abs(sum-(0.0005+0.002+0.002+0.05+7)) > 1e-12 {
		t.Errorf("histogram sum %v", sum)
	}

	// Cumulative-bucket invariant: counts never decrease toward +Inf.
	if series[`latency_seconds_bucket{le="0.001"}`] > series[`latency_seconds_bucket{le="0.01"}`] ||
		series[`latency_seconds_bucket{le="0.1"}`] > series[`latency_seconds_bucket{le="+Inf"}`] {
		t.Error("bucket counts not cumulative")
	}
	if series[`latency_seconds_bucket{le="+Inf"}`] != series["latency_seconds_count"] {
		t.Error("+Inf bucket != count")
	}
}

func TestPromNameAndEscaping(t *testing.T) {
	cases := map[string]string{
		"serving.queue.depth": "serving_queue_depth",
		"already_valid:name":  "already_valid:name",
		"1starts.with.digit":  "_1starts_with_digit",
		"weird-name.1ü":       "weird_name_1_",
		"":                    "_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := escapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Errorf("escapeHelp = %q", got)
	}
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}

func TestParsePrometheusEscapedLabelsRoundTrip(t *testing.T) {
	r := NewRegistry()
	hairy := "a\\b \"c\"\nd"
	r.SetInfo("cardnet.build.info",
		Label{Name: "version", Value: hairy},
		Label{Name: "sha", Value: "deadbeef"})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("escaped labels failed to re-parse: %v\n%s", err, buf.Bytes())
	}
	want := FormatSeries("cardnet_build_info", []Label{
		{Name: "sha", Value: "deadbeef"}, {Name: "version", Value: hairy}})
	if series[want] != 1 {
		t.Fatalf("info series %q missing or != 1 in %v", want, series)
	}
	// The decoded label value must be byte-identical to the original.
	_, labels, err := SplitSeries(want)
	if err != nil {
		t.Fatal(err)
	}
	got := ""
	for _, l := range labels {
		if l.Name == "version" {
			got = l.Value
		}
	}
	if got != hairy {
		t.Fatalf("label value round trip: %q != %q", got, hairy)
	}
}

func TestParsePrometheusExtremeBucketBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wide.seconds", []float64{1e-9, 1e300, math.Inf(1)})
	h.Observe(0.5)
	h.Observe(math.MaxFloat64)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("extreme bounds failed to round trip: %v", err)
	}
	// The explicit +Inf bound must fold into the synthetic one, not
	// duplicate it.
	if got := series[`wide_seconds_bucket{le="+Inf"}`]; got != 2 {
		t.Fatalf("+Inf bucket = %v, want 2 (series: %v)", got, series)
	}
	if got := series[`wide_seconds_bucket{le="1e+300"}`]; got != 1 {
		t.Fatalf("1e+300 bucket = %v, want 1 (series: %v)", got, series)
	}
}

func TestParsePrometheusMalformedLabelPositions(t *testing.T) {
	cases := map[string]string{
		`m{le="0.1} 1`:               "unterminated label value",
		`m{le=0.1} 1`:                `expected '"'`,
		`m{le="a\q"} 1`:              "unknown escape",
		`m{=\"x\"} 1`:                "invalid label name",
		`m{a="1"b="2"} 1`:            "expected ',' or '}'",
		`m{a="1",} 1x`:               "bad value",
		`m{a="1"} 1 notatime`:        "not a timestamp",
		`m{a="1"`:                    "expected ',' or '}'",
		`m{`:                         "unterminated label set",
		"m{a=\"1\"} 1\nm{a=\"1\"} 2": "duplicate series",
	}
	for in, wantMsg := range cases {
		_, err := ParsePrometheus(strings.NewReader(in))
		if err == nil {
			t.Errorf("ParsePrometheus accepted %q", in)
			continue
		}
		if !strings.Contains(err.Error(), wantMsg) {
			t.Errorf("ParsePrometheus(%q) error %q, want mention of %q", in, err, wantMsg)
		}
		if !strings.Contains(err.Error(), "line ") || !strings.Contains(err.Error(), "col ") {
			t.Errorf("ParsePrometheus(%q) error %q carries no position", in, err)
		}
	}
	// Timestamps are tolerated; escapes decode; label order canonicalizes.
	series, err := ParsePrometheus(strings.NewReader(
		"m{b=\"2\",a=\"1\"} 4 1712345678\nesc{v=\"a\\\\b\\nc\\\"d\"} 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if series[`m{a="1",b="2"}`] != 4 {
		t.Fatalf("canonical label order: %v", series)
	}
	if series[`esc{v="a\\b\nc\"d"}`] != 1 {
		t.Fatalf("escape canonicalization: %v", series)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"name 1 2 trailing\nname\n",
		"bad name{ 1\n",
		"9leading_digit 1\n",
		"dup 1\ndup 2\n",
		"name{le=\"unterminated 1\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus accepted %q", bad)
		}
	}
	// Valid corner cases parse.
	ok := "# HELP x y\n# TYPE x counter\nx_total 5\ng NaN\nh_bucket{le=\"+Inf\"} 0\n"
	series, err := ParsePrometheus(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if series["x_total"] != 5 || !math.IsNaN(series["g"]) {
		t.Fatalf("parsed %v", series)
	}
}
