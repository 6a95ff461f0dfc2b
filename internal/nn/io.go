package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshot is a flattened copy of a model's parameter values in Params()
// order. It is the interchange format for gob-based model persistence: the
// caller rebuilds the architecture from its own config and then restores the
// parameter values.
type Snapshot struct {
	Names  []string
	Values [][]float64
}

// TakeSnapshot copies the current values of params.
func TakeSnapshot(params []*Param) *Snapshot {
	s := &Snapshot{}
	for _, p := range params {
		v := make([]float64, len(p.Value))
		copy(v, p.Value)
		s.Names = append(s.Names, p.Name)
		s.Values = append(s.Values, v)
	}
	return s
}

// Check reports whether the snapshot's shapes line up with params, without
// writing anything; a mismatch indicates a different architecture.
func (s *Snapshot) Check(params []*Param) error {
	if len(params) != len(s.Values) {
		return fmt.Errorf("nn: snapshot has %d params, model has %d", len(s.Values), len(params))
	}
	for i, p := range params {
		if len(p.Value) != len(s.Values[i]) {
			return fmt.Errorf("nn: param %d (%s) has %d values, snapshot has %d",
				i, p.Name, len(p.Value), len(s.Values[i]))
		}
	}
	return nil
}

// Restore writes snapshot values back into params. It errors, writing
// nothing, when the shapes do not line up (see Check).
func (s *Snapshot) Restore(params []*Param) error {
	if err := s.Check(params); err != nil {
		return err
	}
	for i, p := range params {
		copy(p.Value, s.Values[i])
	}
	return nil
}

// Encode writes the snapshot with gob.
func (s *Snapshot) Encode(w io.Writer) error { return gob.NewEncoder(w).Encode(s) }

// DecodeSnapshot reads a snapshot written by Encode.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// AdamState is a deep copy of an Adam optimizer's mutable state — the step
// counter and both moment vectors — in the order of the bound parameters. It
// is the optimizer half of a training checkpoint: restoring parameter values
// alone would reset the moments and bias correction, so a resumed run would
// diverge from the uninterrupted one on the very first step.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State captures the optimizer's current moment vectors and step counter.
// The copy is deep, so the caller may retain it across further Step calls.
func (a *Adam) State() *AdamState {
	st := &AdamState{T: a.t,
		M: make([][]float64, len(a.m)),
		V: make([][]float64, len(a.v))}
	for i := range a.m {
		st.M[i] = append([]float64(nil), a.m[i]...)
		st.V[i] = append([]float64(nil), a.v[i]...)
	}
	return st
}

// SetState restores moments captured by State into an optimizer bound to a
// parameter set of the same shape. It errors on any mismatch, which indicates
// the checkpoint belongs to a different architecture.
func (a *Adam) SetState(st *AdamState) error {
	if st == nil {
		return fmt.Errorf("nn: nil Adam state")
	}
	if len(st.M) != len(a.params) || len(st.V) != len(a.params) {
		return fmt.Errorf("nn: Adam state has %d/%d moment vectors, optimizer binds %d params",
			len(st.M), len(st.V), len(a.params))
	}
	for i, p := range a.params {
		if len(st.M[i]) != len(p.Value) || len(st.V[i]) != len(p.Value) {
			return fmt.Errorf("nn: Adam state moments %d (%s) have %d/%d values, param has %d",
				i, p.Name, len(st.M[i]), len(st.V[i]), len(p.Value))
		}
	}
	a.t = st.T
	for i := range a.params {
		copy(a.m[i], st.M[i])
		copy(a.v[i], st.V[i])
	}
	return nil
}

// ParamBytes returns the serialized size in bytes of the given parameters,
// used to report model sizes (paper Table 9). It encodes a snapshot that
// aliases the values instead of copying them, and counts the bytes instead
// of keeping them.
func ParamBytes(params []*Param) int {
	s := &Snapshot{}
	for _, p := range params {
		s.Names = append(s.Names, p.Name)
		s.Values = append(s.Values, p.Value)
	}
	var n byteCount
	if err := s.Encode(&n); err != nil {
		return 0
	}
	return int(n)
}

// byteCount is an io.Writer that only counts what is written to it.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// NumParams returns the total scalar parameter count.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += len(p.Value)
	}
	return n
}
