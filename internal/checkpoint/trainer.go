package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"sync/atomic"

	"cardnet/internal/core"
)

// A Checkpointer persists trainer state from inside a training run. It is
// wired in as a core.TrainHook (wrapping whatever hook is already attached,
// e.g. the train-log writer) plus core.Config.Stop, and writes a checkpoint:
//
//   - every N epochs (the interval passed to NewCheckpointer),
//   - on the epoch where a stop was requested (so SIGTERM flushes the exact
//     epoch the trainer halts at and resume is bit-identical), and
//   - on the early-stop epoch (so the final state survives a crash between
//     training and model publication).
//
// Save failures cannot abort the run from inside a hook; they are recorded
// and reported by Err after the run.
type Checkpointer struct {
	store *Store
	every int
	stop  atomic.Bool
	saves int
	err   error
}

// NewCheckpointer returns a Checkpointer writing to store every `every`
// epochs; every < 1 is treated as 1 (checkpoint each epoch).
func NewCheckpointer(store *Store, every int) *Checkpointer {
	if every < 1 {
		every = 1
	}
	return &Checkpointer{store: store, every: every}
}

// RequestStop asks the trainer to halt at the next epoch boundary. Safe to
// call from any goroutine (cmd/cardnet calls it from the signal handler).
func (c *Checkpointer) RequestStop() { c.stop.Store(true) }

// StopRequested reports whether RequestStop was called; pass it as
// core.Config.Stop.
func (c *Checkpointer) StopRequested() bool { return c.stop.Load() }

// Saves returns how many checkpoints this Checkpointer has written.
func (c *Checkpointer) Saves() int { return c.saves }

// Err returns the first checkpoint-write failure, if any.
func (c *Checkpointer) Err() error { return c.err }

// Hook returns the core.TrainHook to attach to the training config. It first
// delivers the event to next (nil is fine), then decides whether this epoch's
// state must be persisted.
func (c *Checkpointer) Hook(next core.TrainHook) core.TrainHook {
	return func(ev core.TrainEvent) {
		if next != nil {
			next(ev)
		}
		due := ev.Epoch%c.every == 0 || ev.EarlyStop || c.StopRequested()
		if !due || ev.Snapshot == nil {
			return
		}
		if err := c.SaveState(ev.Snapshot()); err != nil && c.err == nil {
			c.err = err
		}
	}
}

// SaveState gob-encodes a trainer state and writes it as the next numbered
// checkpoint in the store.
func (c *Checkpointer) SaveState(st *core.TrainerState) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fmt.Errorf("checkpoint: encode trainer state: %w", err)
	}
	if _, err := c.store.Save(buf.Bytes()); err != nil {
		return err
	}
	c.saves++
	return nil
}

// LoadLatest returns the newest decodable trainer state in the store, the
// sequence number it came from, and the newer sequence numbers skipped as
// corrupt or undecodable (for the caller to log). Files that pass the CRC but
// fail gob decoding (e.g. written by an incompatible version) are skipped the
// same way as torn files: resume falls back to the previous retained
// checkpoint rather than dying. The error wraps os.ErrNotExist when the store
// holds no usable checkpoint.
func LoadLatest(store *Store) (st *core.TrainerState, seq uint64, skipped []uint64, err error) {
	seqs, err := store.Seqs()
	if err != nil {
		return nil, 0, nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		payload, rerr := store.Read(seqs[i])
		if rerr != nil {
			skipped = append(skipped, seqs[i])
			continue
		}
		got, derr := decodeTrainerState(payload)
		if derr != nil {
			skipped = append(skipped, seqs[i])
			continue
		}
		return got, seqs[i], skipped, nil
	}
	return nil, 0, skipped, fmt.Errorf("checkpoint: no usable checkpoint in %s: %w", store.Dir(), os.ErrNotExist)
}

// decodeTrainerState gob-decodes one checkpoint payload written by SaveState.
func decodeTrainerState(payload []byte) (*core.TrainerState, error) {
	var st core.TrainerState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
