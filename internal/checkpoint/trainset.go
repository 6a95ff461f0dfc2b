package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"cardnet/internal/core"
	"cardnet/internal/tensor"
)

// trainSetFile is the gob payload behind a KindTrainSet frame: the exact
// train/valid split a retrain ran on, frozen together so resume verification
// (core.TrainerState.DataHash) sees byte-identical data after a restart.
type trainSetFile struct {
	Train, Valid *core.TrainSet
}

// SaveTrainSet stages a train/valid split at path through the framed atomic
// writer. The autopilot persists the split it built from feedback and audit
// samples before starting a candidate retrain; a process that dies mid-retrain
// can then resume from its latest trainer checkpoint against the very same
// data instead of rebuilding a (different) set and failing the DataHash check.
func SaveTrainSet(path string, train, valid *core.TrainSet) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(trainSetFile{Train: train, Valid: valid}); err != nil {
		return fmt.Errorf("checkpoint: encode train set: %w", err)
	}
	return WriteFileAtomic(path, KindTrainSet, buf.Bytes())
}

// LoadTrainSet loads a split staged by SaveTrainSet, verifying the frame and
// the shapes the frame's CRC cannot vouch for: a split whose matrices do not
// hold their claimed shapes, whose labels, P and TauTop disagree, or whose
// validation half is missing or shaped unlike the training half is
// ErrCorrupt, so training never indexes past a slice it was handed.
func LoadTrainSet(path string) (train, valid *core.TrainSet, err error) {
	payload, err := ReadFile(path, KindTrainSet)
	if err != nil {
		return nil, nil, err
	}
	var f trainSetFile
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&f); err != nil {
		return nil, nil, fmt.Errorf("%w: %s: decode train set: %v", ErrCorrupt, path, err)
	}
	if err := checkSplit(f.Train, f.Valid); err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return f.Train, f.Valid, nil
}

// checkSplit verifies a decoded train/valid pair: both halves well-formed
// (checkTrainSet) with the same feature width and τ range.
func checkSplit(train, valid *core.TrainSet) error {
	if err := checkTrainSet("training", train); err != nil {
		return err
	}
	if err := checkTrainSet("validation", valid); err != nil {
		return err
	}
	if valid.X.Cols != train.X.Cols || valid.TauTop != train.TauTop {
		return fmt.Errorf("validation split has %d features and TauTop %d, training split %d and %d",
			valid.X.Cols, valid.TauTop, train.X.Cols, train.TauTop)
	}
	return nil
}

// checkTrainSet verifies one split: X and Labels present, each holding
// exactly Rows×Cols values with at least one column, one label row per
// query, and TauTop+1 = Labels.Cols = len(P) with TauTop ≥ 0.
func checkTrainSet(name string, ts *core.TrainSet) error {
	if ts == nil || ts.X == nil || ts.Labels == nil {
		return fmt.Errorf("train set frame missing %s split", name)
	}
	for _, m := range []*tensor.Matrix{ts.X, ts.Labels} {
		// Division, not Rows×Cols, so a lying shape cannot overflow into a match.
		if m.Cols < 1 || m.Rows < 0 || len(m.Data)%m.Cols != 0 || m.Rows != len(m.Data)/m.Cols {
			return fmt.Errorf("%s split: %d×%d matrix holds %d values", name, m.Rows, m.Cols, len(m.Data))
		}
	}
	if ts.Labels.Rows != ts.X.Rows {
		return fmt.Errorf("%s split: %d label rows for %d queries", name, ts.Labels.Rows, ts.X.Rows)
	}
	if ts.TauTop < 0 || ts.Labels.Cols != ts.TauTop+1 || len(ts.P) != ts.Labels.Cols {
		return fmt.Errorf("%s split: TauTop %d with %d label columns and %d P entries",
			name, ts.TauTop, ts.Labels.Cols, len(ts.P))
	}
	return nil
}
