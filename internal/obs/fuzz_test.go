package obs

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// FuzzParsePrometheus feeds arbitrary text to ParsePrometheus, the tests'
// reference parser of the writer's output. Any input either fails or yields
// a map whose every id splits through SplitSeries back into itself, and
// whose series, re-emitted as `id value` lines with the Prometheus writer's
// value formatting, re-parse to the same map with the same value bits (NaN
// equal to NaN). No production code parses exposition text, so fuzz-smoke
// does not run it; `go test` replays its seeds (the golden exposition,
// exemplar lines and malformed label sets, in
// testdata/fuzz/FuzzParsePrometheus) as regression inputs.
func FuzzParsePrometheus(f *testing.F) {
	f.Fuzz(func(t *testing.T, text []byte) {
		series, err := ParsePrometheus(bytes.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for id, v := range series {
			name, labels, err := SplitSeries(id)
			if err != nil {
				t.Fatalf("id %q does not split: %v", id, err)
			}
			if got := FormatSeries(name, labels); got != id {
				t.Fatalf("id %q re-formats as %q", id, got)
			}
			fmt.Fprintf(&buf, "%s %s\n", id, formatPromValue(v))
		}
		back, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatalf("re-emitted series do not re-parse: %v\n%s", err, buf.String())
		}
		if len(back) != len(series) {
			t.Fatalf("round trip kept %d of %d series:\n%s", len(back), len(series), buf.String())
		}
		for id, v := range series {
			got, ok := back[id]
			if !ok || math.Float64bits(got) != math.Float64bits(v) && !(math.IsNaN(got) && math.IsNaN(v)) {
				t.Fatalf("%q = %v round-tripped as %v (present %v)", id, v, got, ok)
			}
		}
	})
}
