package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Snapshot is a flattened copy of a model's parameter values in Params()
// order. It is the interchange format for gob-based persistence (trainer
// checkpoints, and model files in the older gob layout): the caller rebuilds
// the architecture from its own config and then restores the parameter
// values.
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
// used to report model sizes (paper Table 9): exactly what Snapshot.Encode
// writes for them, computed without encoding a single value. One gob encode
// of a skeleton snapshot, with the names but empty value slices, fixes the
// framing (type descriptors, names, slice counts). Each value then adds the
// length of gob's unsigned encoding of its byte-reversed IEEE bits, and each
// value slice's length and the value message's length prefix grow to what
// the real lengths need.
func ParamBytes(params []*Param) int {
	skel := &Snapshot{}
	grow := 0 // bytes the values add to the skeleton's value message
	for _, p := range params {
		skel.Names = append(skel.Names, p.Name)
		skel.Values = append(skel.Values, nil)
		grow += gobUintLen(uint64(len(p.Value))) - 1
		for _, v := range p.Value {
			grow += gobUintLen(bits.ReverseBytes64(math.Float64bits(v)))
		}
	}
	var buf bytes.Buffer
	if err := skel.Encode(&buf); err != nil {
		return 0
	}
	// Every gob message is its length, then its body; the value message is
	// the last one, after the type descriptors.
	stream := buf.Bytes()
	for {
		n, w := gobUint(stream)
		if w+n == len(stream) {
			return buf.Len() - len(stream) + gobUintLen(uint64(n+grow)) + n + grow
		}
		stream = stream[w+n:]
	}
}

// gobUintLen is the length of gob's encoding of x: one byte up to 0x7F,
// else a byte count followed by x's big-endian bytes without leading zeros.
func gobUintLen(x uint64) int {
	if x <= 0x7F {
		return 1
	}
	return 1 + (bits.Len64(x)+7)/8
}

// gobUint decodes the gob unsigned integer at the start of b, which gob
// itself wrote, returning its value and encoded length.
func gobUint(b []byte) (n, width int) {
	if b[0] <= 0x7F {
		return int(b[0]), 1
	}
	width = 1 + int(-int8(b[0]))
	for _, c := range b[1:width] {
		n = n<<8 | int(c)
	}
	return n, width
}

// NumParams returns the total scalar parameter count.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += len(p.Value)
	}
	return n
}
