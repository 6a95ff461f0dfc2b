package obs

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParsePrometheus feeds arbitrary text to ParsePrometheus, the parser of
// every scraped peer body. Any input either fails or yields a map whose
// every id splits through SplitSeries back into itself and survives a
// WriteFederated → ParsePrometheus round trip under its instance label with
// the same value bits. The one exception is a bare federate_up, which
// federates onto the federator's own health series and yields to it. Seeds
// (the golden exposition, exemplar lines and malformed label sets) live in
// testdata/fuzz/FuzzParsePrometheus.
func FuzzParsePrometheus(f *testing.F) {
	f.Fuzz(func(t *testing.T, text []byte) {
		series, err := ParsePrometheus(bytes.NewReader(text))
		if err != nil {
			return
		}
		const inst = "peer:9100"
		var buf bytes.Buffer
		if err := WriteFederated(&buf, []RemoteSnapshot{{Instance: inst, Series: series}}); err != nil {
			t.Fatal(err)
		}
		back, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatalf("federated output does not re-parse: %v\n%s", err, buf.String())
		}
		_, shadowed := series["federate_up"]
		if shadowed {
			delete(series, "federate_up")
		}
		if len(back) != len(series)+1 { // + federate_up
			t.Fatalf("round trip kept %d of %d series + federate_up:\n%s", len(back), len(series), buf.String())
		}
		if up := back[FormatSeries("federate_up", []Label{{Name: "instance", Value: inst}})]; up != 1 {
			t.Fatalf("federate_up = %v, want 1 (shadowed peer series %v)", up, shadowed)
		}
		for id, v := range series {
			name, labels, err := SplitSeries(id)
			if err != nil {
				t.Fatalf("id %q does not split: %v", id, err)
			}
			if got := FormatSeries(name, labels); got != id {
				t.Fatalf("id %q re-formats as %q", id, got)
			}
			fid, err := addInstance(id, inst)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := back[fid]
			if !ok || math.Float64bits(got) != math.Float64bits(v) && !(math.IsNaN(got) && math.IsNaN(v)) {
				t.Fatalf("%q = %v round-tripped as %q = %v (present %v)", id, v, fid, got, ok)
			}
		}
	})
}
