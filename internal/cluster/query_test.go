package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

// refQuery is what encoding/json decodes a query body into, the reference
// DecodeQuery is held to.
type refQuery struct {
	X      []float64 `json:"x"`
	Tau    *int      `json:"tau"`
	All    bool      `json:"all"`
	Actual *float64  `json:"actual"`
}

// FuzzDecodeQuery holds DecodeQuery to json.Unmarshal into refQuery: both
// accept or both refuse, and an accepted body yields the same x, tau, all
// and actual, bit for bit. json.Unmarshal, like DecodeQuery, refuses data
// after the top-level value (a json.Decoder, which the replica once used,
// stops reading at the value's end and so accepted it); the one body
// json.Unmarshal accepts and DecodeQuery refuses has a null element in an x
// member, which encoding/json reads as 0. Seeds live in
// testdata/fuzz/FuzzDecodeQuery.
func FuzzDecodeQuery(f *testing.F) {
	f.Add([]byte(`{"x":[1,0,1,1],"tau":3}`))
	f.Add([]byte(`{"x":[0,1],"all":true,"actual":41}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := DecodeQuery(body)
		var ref refQuery
		refErr := json.Unmarshal(body, &ref)
		if refErr == nil && nullInX(body) {
			if err == nil {
				t.Fatalf("%q: accepted a null element of x", body)
			}
			return
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: DecodeQuery err %v, encoding/json err %v", body, err, refErr)
		}
		if err != nil {
			return
		}
		if !sameBits(q.X, ref.X) {
			t.Fatalf("%q: x %v, encoding/json %v", body, q.X, ref.X)
		}
		if q.HasTau != (ref.Tau != nil) || ref.Tau != nil && q.Tau != *ref.Tau {
			t.Fatalf("%q: tau %d (given %v), encoding/json %v", body, q.Tau, q.HasTau, ref.Tau)
		}
		if q.All != ref.All {
			t.Fatalf("%q: all %v, encoding/json %v", body, q.All, ref.All)
		}
		if q.HasActual != (ref.Actual != nil) || ref.Actual != nil && !sameBits([]float64{q.Actual}, []float64{*ref.Actual}) {
			t.Fatalf("%q: actual %v (given %v), encoding/json %v", body, q.Actual, q.HasActual, ref.Actual)
		}
	})
}

// nullInX reports whether a valid JSON object has a member named x, in any
// case, whose array holds a null element.
func nullInX(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		key, _ := dec.Token()
		var raw json.RawMessage
		if dec.Decode(&raw) != nil {
			return false
		}
		var elems []any
		if name, _ := key.(string); strings.EqualFold(name, "x") && json.Unmarshal(raw, &elems) == nil && slices.Contains(elems, nil) {
			return true
		}
	}
	return false
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

// fixtureBody is a benchmark-fixture-shaped request: 64 binary features and
// a tau.
func fixtureBody() []byte {
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(i % 3 % 2)
	}
	b, _ := json.Marshal(x)
	return []byte(`{"x":` + string(b) + `,"tau":5}`)
}

// TestDecodeQueryAllocs pins the decode of a fixture-shaped body to one
// allocation, the x slice the caller keeps.
func TestDecodeQueryAllocs(t *testing.T) {
	body := fixtureBody()
	if allocs := testing.AllocsPerRun(100, func() {
		if q, err := DecodeQuery(body); err != nil || len(q.X) != 64 || q.Tau != 5 {
			t.Fatalf("DecodeQuery: %+v, %v", q, err)
		}
	}); allocs != 1 {
		t.Fatalf("DecodeQuery allocates %v times per body, want 1 (x)", allocs)
	}
}

// BenchmarkDecodeQuery decodes a fixture-shaped body with DecodeQuery and,
// for comparison, with encoding/json into the equivalent struct.
func BenchmarkDecodeQuery(b *testing.B) {
	body := fixtureBody()
	b.Run("DecodeQuery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeQuery(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var q refQuery
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDecodeQueryDepth: DecodeQuery shares encoding/json's nesting limit,
// 10000 open arrays and objects counting the body's own object.
func TestDecodeQueryDepth(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		for _, nest := range []string{
			strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1),
			strings.Repeat(`{"a":`, depth-2) + "{}" + strings.Repeat("}", depth-2),
		} {
			body := []byte(`{"x":[1],"m":` + nest + `}`)
			_, err := DecodeQuery(body)
			refErr := json.Unmarshal(body, new(refQuery))
			if (err == nil) != (depth <= maxDepth) || (err == nil) != (refErr == nil) {
				t.Fatalf("depth %d of %.2q: err %v, encoding/json err %v", depth, nest, err, refErr)
			}
		}
	}
}
