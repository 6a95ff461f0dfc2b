package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ErrCorrupt marks a file that failed header or checksum verification —
// truncated, torn, bit-flipped, or not a checkpoint file at all. Callers
// (Store.LoadLatest) treat it as "skip this file and fall back", never as
// decodable data.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated file")

// Kind tags distinguish what a framed file carries.
const (
	// KindTrainer frames a gob-encoded core.TrainerState.
	KindTrainer = "TRNR"
	// KindModel frames a model. A version-2 frame carries core.Model.Encode's
	// layout (a gob header, then the raw weights); a version-1 frame, as
	// earlier builds wrote, the gob layout core.LoadGob reads.
	KindModel = "MODL"
	// KindTrainSet frames a gob-encoded train/valid split (SaveTrainSet).
	KindTrainSet = "TSET"
)

const (
	fileMagic   = "CKPT"
	fileVersion = 1
	// modelVersion is the frame version of a model in core.Model.Encode's
	// layout. A build that predates it refuses such a file as an unsupported
	// version.
	modelVersion = 2
	// header: magic(4) version(1) kind(4) payloadLen(8) crc32(4)
	headerSize = 4 + 1 + 4 + 8 + 4
)

// WriteFileAtomic durably writes payload to path framed with the given kind:
// the bytes go to a temporary file in the same directory, are fsynced, then
// renamed over path, and the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the old file or the complete
// new one. The temporary name starts with "." so Store directory scans skip
// any orphan left by a crash mid-write. The frame is version 1.
func WriteFileAtomic(path, kind string, payload []byte) error {
	return writeFrame(path, kind, fileVersion, payload)
}

// writeFrame is WriteFileAtomic with the frame's version byte.
func writeFrame(path, kind string, version byte, payload []byte) error {
	if len(kind) != 4 {
		return fmt.Errorf("checkpoint: kind must be 4 bytes, got %q", kind)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	// On any failure past this point, remove the orphan before returning.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}

	var hdr [headerSize]byte
	copy(hdr[0:4], fileMagic)
	hdr[4] = version
	copy(hdr[5:9], kind)
	binary.LittleEndian.PutUint64(hdr[9:17], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[17:21], crc32.ChecksumIEEE(payload))

	if _, err := tmp.Write(hdr[:]); err != nil {
		return fail(fmt.Errorf("checkpoint: write header: %w", err))
	}
	if _, err := tmp.Write(payload); err != nil {
		return fail(fmt.Errorf("checkpoint: write payload: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("checkpoint: fsync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("checkpoint: close temp file: %w", err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename survives power loss.
// Filesystems that do not support fsync on directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("checkpoint: fsync dir: %w", err)
	}
	return nil
}

// ReadFile reads a file written by WriteFileAtomic, verifies the magic,
// version (1), kind, length, and CRC32, and returns the payload. Any
// verification failure returns an error wrapping ErrCorrupt; a kind mismatch
// (a valid file of the wrong type) is reported distinctly. Anything but a
// regular file is refused (see readRegular).
func ReadFile(path, kind string) ([]byte, error) {
	raw, err := readRegular(path)
	if err != nil {
		return nil, err
	}
	payload, gotKind, version, err := decodeFrame(raw)
	if err == nil && version != fileVersion {
		err = fmt.Errorf("unsupported format version %d", version)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	if gotKind != kind {
		return nil, fmt.Errorf("checkpoint: %s holds a %q frame, expected %q", path, gotKind, kind)
	}
	return payload, nil
}

// readRegular reads path only if os.Stat reports a regular file. Paths can
// come from a request body (/admin/reload): a device such as /dev/zero would
// otherwise grow the heap without bound, and a FIFO would block the reader
// forever.
func readRegular(path string) ([]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("checkpoint: %s is not a regular file (mode %s)", path, fi.Mode().Type())
	}
	return os.ReadFile(path)
}

// decodeFrame verifies a framed byte slice and returns its payload, kind and
// version (fileVersion or modelVersion).
func decodeFrame(raw []byte) (payload []byte, kind string, version byte, err error) {
	if len(raw) < headerSize {
		return nil, "", 0, fmt.Errorf("file shorter than header (%d bytes)", len(raw))
	}
	if !bytes.Equal(raw[0:4], []byte(fileMagic)) {
		return nil, "", 0, fmt.Errorf("bad magic %q", raw[0:4])
	}
	if version = raw[4]; version != fileVersion && version != modelVersion {
		return nil, "", 0, fmt.Errorf("unsupported format version %d", version)
	}
	kind = string(raw[5:9])
	n := binary.LittleEndian.Uint64(raw[9:17])
	if uint64(len(raw)-headerSize) != n {
		return nil, "", 0, fmt.Errorf("payload length %d, header says %d (truncated?)", len(raw)-headerSize, n)
	}
	payload = raw[headerSize:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(raw[17:21]); got != want {
		return nil, "", 0, fmt.Errorf("CRC mismatch (got %#x, header %#x)", got, want)
	}
	return payload, kind, version, nil
}
