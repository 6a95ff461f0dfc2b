package simselect

import (
	"fmt"

	"cardnet/internal/dist"
)

// EncodedOracle answers exact counts in the transformed Hamming space the
// CardNet regressor g is trained toward: |{h(y) : H(h(x), h(y)) ≤ τ}| over
// the encoded dataset. For Hamming workloads the encoding is the identity
// (Section 4.1), so this equals the original-space cardinality; the serve
// mode's audit sampler uses it to replay live /estimate requests against
// ground truth and feed the drift monitor without labelled feedback.
type EncodedOracle struct {
	ix  *HammingIndex
	dim int
}

// NewEncodedOracle converts encoded binary rows (values 0/1, all of equal
// length) into bit vectors and wraps them in a popcount-scan index.
func NewEncodedOracle(rows [][]float64) (*EncodedOracle, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("simselect: empty encoded dataset")
	}
	dim := len(rows[0])
	recs := make([]dist.BitVector, len(rows))
	for i, row := range rows {
		if len(row) != dim {
			return nil, fmt.Errorf("simselect: encoded row %d has %d bits, want %d", i, len(row), dim)
		}
		v, err := EncodeBits(row)
		if err != nil {
			return nil, fmt.Errorf("simselect: row %d: %w", i, err)
		}
		recs[i] = v
	}
	return &EncodedOracle{ix: NewHammingIndex(recs), dim: dim}, nil
}

// NewEncodedOracleBits wraps already-materialized bit vectors (a Hamming
// dataset is its own encoding).
func NewEncodedOracleBits(recs []dist.BitVector) (*EncodedOracle, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("simselect: empty encoded dataset")
	}
	return &EncodedOracle{ix: NewHammingIndex(recs), dim: recs[0].Len}, nil
}

// Dim returns the encoded dimensionality the oracle expects.
func (o *EncodedOracle) Dim() int { return o.dim }

// Len returns the number of indexed records.
func (o *EncodedOracle) Len() int { return len(o.ix.Records) }

// CountEncoded returns the exact cardinality at transformed threshold τ for
// an encoded query vector. Negative τ selects nothing by convention
// (matching infer.Plan.Estimate's clamp).
func (o *EncodedOracle) CountEncoded(x []float64, tau int) (int, error) {
	if tau < 0 {
		return 0, nil
	}
	if len(x) != o.dim {
		return 0, fmt.Errorf("simselect: query has %d bits, oracle indexes %d", len(x), o.dim)
	}
	q, err := EncodeBits(x)
	if err != nil {
		return 0, err
	}
	return o.ix.Count(q, float64(tau)), nil
}

// CurveEncoded returns the exact cumulative cardinality curve at every
// transformed threshold τ ∈ [0, tauTop] in one index scan — the ground-truth
// labels the serve-mode autopilot retrains and shadow-scores against
// (CountEncoded called tauTop+1 times would rescan the dataset per τ).
func (o *EncodedOracle) CurveEncoded(x []float64, tauTop int) ([]float64, error) {
	if tauTop < 0 {
		return nil, fmt.Errorf("simselect: negative tauTop %d", tauTop)
	}
	if len(x) != o.dim {
		return nil, fmt.Errorf("simselect: query has %d bits, oracle indexes %d", len(x), o.dim)
	}
	q, err := EncodeBits(x)
	if err != nil {
		return nil, err
	}
	cum := o.ix.CountAtEach(q, tauTop)
	curve := make([]float64, tauTop+1)
	for i, c := range cum {
		curve[i] = float64(c)
	}
	return curve, nil
}

// EncodeBits packs a strictly-binary float row into a BitVector.
func EncodeBits(row []float64) (dist.BitVector, error) {
	v := dist.NewBitVector(len(row))
	for i, b := range row {
		switch b {
		case 0:
		case 1:
			v.SetBit(i, true)
		default:
			return dist.BitVector{}, fmt.Errorf("component %d = %v, want binary 0/1", i, b)
		}
	}
	return v, nil
}
