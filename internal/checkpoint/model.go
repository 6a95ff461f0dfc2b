package checkpoint

import (
	"bytes"
	"fmt"

	"cardnet/internal/core"
)

// SaveModel publishes a trained model at path through the framed atomic
// writer: the serving loader (startup and /admin/reload) can never observe a
// torn or partially-written model file, and a copy truncated in transit fails
// the CRC instead of decoding silently.
func SaveModel(path string, m *core.Model) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return fmt.Errorf("checkpoint: encode model: %w", err)
	}
	return WriteFileAtomic(path, KindModel, buf.Bytes())
}

// LoadModel loads a model published by SaveModel, verifying the frame. Files
// from before the framing format (bare gob, as core.Model.Save emits) are
// still accepted: anything without the frame magic is handed to the legacy
// decoder, which fails loudly on truncation rather than yielding a partial
// model. A file that fails the frame check, does not decode, or whose config
// does not match its weights is reported as ErrCorrupt. Anything but a
// regular file is refused before it is read.
func LoadModel(path string) (*core.Model, error) {
	raw, err := readRegular(path)
	if err != nil {
		return nil, err
	}
	return decodeModel(path, raw)
}

// decodeModel is LoadModel on the file's bytes; path only labels errors.
func decodeModel(path string, raw []byte) (*core.Model, error) {
	if len(raw) >= 4 && string(raw[0:4]) == fileMagic {
		payload, kind, err := decodeFrame(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
		}
		if kind != KindModel {
			return nil, fmt.Errorf("checkpoint: %s holds a %q frame, not a model — point -model at a published model file", path, kind)
		}
		m, err := core.Load(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
		}
		return m, nil
	}
	m, err := core.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%w: %s is neither a framed nor a legacy model file: %v", ErrCorrupt, path, err)
	}
	return m, nil
}
