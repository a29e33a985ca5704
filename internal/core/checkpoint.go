package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/unet"
)

// ErrCorruptCheckpoint marks a checkpoint file that exists but cannot be
// trusted: a failed gob decode or an impossible cursor. It is distinct
// from os.ErrNotExist ("start fresh") because the right reaction differs —
// a missing checkpoint means no progress was saved, a corrupt one means
// saved progress is unreadable and silently restarting would discard it.
// Test with errors.Is.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// RunKey identifies a training configuration for checkpoint compatibility:
// a checkpoint only resumes a run whose schedule-shaping fields — and
// network architecture — are identical, because the resume cursor indexes
// into the expanded schedule, the optimizer state assumes the same data
// order and learning rate, and ImportState rebuilds the net from the
// snapshot's stored config (a silently different -filters would otherwise
// be accepted and ignored).
//
// The worker count and transport are deliberately NOT part of the key: a
// snapshot is the total training state, independent of how the global
// batch was sharded when it was written, so a checkpoint from a p-rank
// world restores into any world size. That is the contract elastic fault
// tolerance rests on — after a rank dies, the survivors resume the same
// checkpoint at the smaller world size.
type RunKey struct {
	Dim               int
	Strategy          Strategy
	Levels            int
	FinestRes         int
	Samples           int
	BatchSize         int
	LR                float64
	RestrictionEpochs int
	MaxEpochsPerStage int
	Patience          int
	MinDelta          float64
	Adapt             bool
	Cycles            int
	Seed              int64
	Net               unet.Config
}

// runKey extracts the compatibility key from a (validated) config, with
// the network config normalized the way NewTrainer normalizes it.
func runKey(cfg Config) RunKey {
	return RunKey{
		Net:               cfg.netConfig(),
		Dim:               cfg.Dim,
		Strategy:          cfg.Strategy,
		Levels:            cfg.Levels,
		FinestRes:         cfg.FinestRes,
		Samples:           cfg.Samples,
		BatchSize:         cfg.BatchSize,
		LR:                cfg.LR,
		RestrictionEpochs: cfg.RestrictionEpochs,
		MaxEpochsPerStage: cfg.MaxEpochsPerStage,
		Patience:          cfg.Patience,
		MinDelta:          cfg.MinDelta,
		Adapt:             cfg.Adapt,
		Cycles:            cfg.Cycles,
		Seed:              cfg.Seed,
	}
}

// Checkpoint is a durable snapshot of a full training run: the schedule
// cursor, the early-stopping progress of the in-progress stage, the report
// accumulated so far, and the backend state — a unet gob snapshot
// (weights, adaptation structure, batch-norm statistics) plus the Adam
// moments and step counts in the network's parameter order. Restoring one
// and continuing reproduces the uninterrupted run's weights bit for bit.
type Checkpoint struct {
	// Key guards against resuming with an incompatible configuration.
	Key RunKey
	// StageIdx/Epoch is the resume cursor: the next epoch to train is
	// epoch Epoch of schedule stage StageIdx. A finished run checkpoints
	// with StageIdx equal to the schedule length.
	StageIdx int
	Epoch    int
	// StageAdapted records whether architectural adaptation was applied
	// entering the partially trained stage (it must not be re-applied on
	// resume; the adapted architecture is already inside Net).
	StageAdapted bool
	// Stopper is the early-stopping progress of the partial stage.
	Stopper StopperState
	// Stages and History are the report accumulated so far.
	Stages  []StageReport
	History []EpochRecord
	// DataCursor is the intra-epoch sample offset. RunSchedule snapshots
	// are epoch-aligned so it is always 0; the field keeps the wire format
	// stable for finer-grained writers.
	DataCursor int
	// Net is a unet gob snapshot (unet.Save) and Opt the matching Adam
	// state in the network's parameter order.
	Net []byte
	Opt nn.AdamState
}

// SaveCheckpoint writes ck atomically and durably: the snapshot is
// gob-encoded to a temporary file next to the target, fsynced, renamed
// over path, and the containing directory is fsynced so the rename itself
// survives a machine crash (not just a process kill — without the
// directory sync a power loss can roll the rename back, and without the
// file sync it can expose a renamed-but-empty file). A crash at any point
// leaves either the previous checkpoint or the new one, never a torn mix.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(ck); err != nil {
		_ = f.Close() // already failing; the encode error is the one to keep
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint encode: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // already failing; the sync error is the one to keep
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint rename: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// filesystems reject fsync on directories (EINVAL); that is not a failed
// checkpoint, so only real sync failures are reported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("core: checkpoint dir open: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("core: checkpoint dir sync: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. The error
// wraps os.ErrNotExist when no checkpoint exists yet, so callers can treat
// a missing file as "start fresh"; a file that exists but fails to decode
// (truncated, garbage, torn write from a non-atomic writer) wraps
// ErrCorruptCheckpoint instead, so "no progress" and "unreadable progress"
// stay distinguishable.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	defer f.Close()
	var ck Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w: decode: %v", path, ErrCorruptCheckpoint, err)
	}
	if ck.StageIdx < 0 || ck.Epoch < 0 {
		return nil, fmt.Errorf("core: checkpoint %s: %w: negative cursor (%d, %d)",
			path, ErrCorruptCheckpoint, ck.StageIdx, ck.Epoch)
	}
	if ck.DataCursor != 0 {
		return nil, fmt.Errorf("core: checkpoint has mid-epoch data cursor %d; only epoch-aligned snapshots are supported", ck.DataCursor)
	}
	return &ck, nil
}
