package checkpoint

import (
	"bytes"
	"fmt"

	"cardnet/internal/core"
)

// SaveModel publishes a trained model at path through the framed atomic
// writer, as a version-2 frame around core.Model.Encode's layout: the serving
// loader (startup and /admin/reload) can never observe a torn or
// partially-written model file, and a copy truncated in transit fails the
// CRC instead of decoding silently.
func SaveModel(path string, m *core.Model) error {
	payload, err := m.Encode()
	if err != nil {
		return fmt.Errorf("checkpoint: encode model: %w", err)
	}
	return writeFrame(path, KindModel, modelVersion, payload)
}

// LoadModel loads a model published by SaveModel, verifying the frame. Files
// earlier builds wrote still load through the gob decoder: version-1 frames,
// and files from before the framing format (bare gob), which is anything
// without the frame magic. Both decoders fail loudly on truncation rather
// than yielding a partial model. A file that fails the frame check, does not
// decode, or whose config does not match its weights is reported as
// ErrCorrupt. Anything but a regular file is refused before it is read.
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
		payload, kind, version, err := decodeFrame(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
		}
		if kind != KindModel {
			return nil, fmt.Errorf("checkpoint: %s holds a %q frame, not a model — point -model at a published model file", path, kind)
		}
		var m *core.Model
		if version == modelVersion {
			m, err = core.Decode(payload)
		} else {
			m, err = core.LoadGob(bytes.NewReader(payload))
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
		}
		return m, nil
	}
	m, err := core.LoadGob(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%w: %s is neither a framed nor a legacy model file: %v", ErrCorrupt, path, err)
	}
	return m, nil
}
