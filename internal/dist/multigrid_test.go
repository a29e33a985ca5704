package dist

// Distributed multigrid: dist.ParallelTrainer implements core.EpochBackend
// over replicas that are each a core.Trainer, so core.RunSchedule drives
// every V/W/F/Half-V strategy data-parallel. The
// tests here enforce the two strong exactness bars: a 1-worker distributed
// run matches the single-process core.Trainer bit for bit, and a
// killed-and-resumed distributed run matches an uninterrupted one bit for
// bit.

import (
	"errors"
	"testing"

	"mgdiffnet/internal/core"
	"mgdiffnet/internal/nn"
	"mgdiffnet/internal/unet"
)

// multigridCfg exercises restriction and prolongation phases, a ragged
// dataset (5 samples, global batch 2), and architectural adaptation on the
// coarse-to-fine transition. BatchNorm stays off: with it on, the local
// batch statistics depend on the shard, so only workers=1 would match.
func multigridCfg() core.Config {
	cfg := core.DefaultConfig(2)
	cfg.Strategy = core.V
	cfg.FinestRes = 16
	cfg.Levels = 2
	cfg.Samples = 5
	cfg.BatchSize = 2
	cfg.RestrictionEpochs = 2
	cfg.MaxEpochsPerStage = 3
	cfg.Patience = 2
	cfg.Adapt = true
	cfg.Seed = 23
	cfg.Net = smallNet(2)
	return cfg
}

func newMultigridPT(t *testing.T, cfg core.Config, workers int) *ParallelTrainer {
	t.Helper()
	pt, err := NewParallelTrainer(ParallelConfig{
		Workers:     workers,
		Dim:         cfg.Dim,
		Res:         cfg.FinestRes,
		Samples:     cfg.Samples,
		GlobalBatch: cfg.BatchSize,
		LR:          cfg.LR,
		Seed:        cfg.Seed,
		Net:         cfg.Net,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func requireSameParams(t *testing.T, label string, pa, pb []*nn.Param) {
	t.Helper()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d vs %d parameter tensors", label, len(pa), len(pb))
	}
	for i := range pa {
		da, db := pa[i].Data.Data, pb[i].Data.Data
		if len(da) != len(db) {
			t.Fatalf("%s: param %d length %d vs %d", label, i, len(da), len(db))
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("%s: param %d (%s) elem %d: %g vs %g — must be bit-identical",
					label, i, pa[i].Name, j, da[j], db[j])
			}
		}
	}
}

// A workers=1 distributed multigrid run must reproduce the single-process
// core.Trainer exactly: same epoch losses, same early-stopping decisions,
// same final weights, bit for bit.
func TestDistributedMultigridWorkers1MatchesSingleProcess(t *testing.T) {
	cfg := multigridCfg()
	ref := core.NewTrainer(cfg)
	repA, err := core.RunSchedule(cfg, ref, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	pt := newMultigridPT(t, cfg, 1)
	defer pt.Close()
	repB, err := core.RunSchedule(cfg, pt, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if len(repA.History) != len(repB.History) {
		t.Fatalf("history %d vs %d epochs", len(repA.History), len(repB.History))
	}
	for i := range repA.History {
		if repA.History[i].Loss != repB.History[i].Loss {
			t.Fatalf("epoch %d: single-process loss %v, distributed loss %v",
				i, repA.History[i].Loss, repB.History[i].Loss)
		}
	}
	for i := range repA.Stages {
		if repA.Stages[i].Epochs != repB.Stages[i].Epochs ||
			repA.Stages[i].Adapted != repB.Stages[i].Adapted {
			t.Fatalf("stage %d: %+v vs %+v", i, repA.Stages[i], repB.Stages[i])
		}
	}
	requireSameParams(t, "workers=1 vs single-process", ref.Net.Params(), pt.Net().Params())

	la, err := ref.EvalLoss(cfg.FinestRes)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := pt.EvalLoss(cfg.FinestRes)
	if err != nil {
		t.Fatal(err)
	}
	if la != lb {
		t.Fatalf("EvalLoss %v vs %v", la, lb)
	}
}

// Replicas must stay bit-identical through level switches, re-sharded
// ragged batches (workers=3 over batches of 2 and 1 leaves some shards
// empty), and architectural adaptation.
func TestDistributedMultigridReplicasStayInSync(t *testing.T) {
	cfg := multigridCfg()
	pt := newMultigridPT(t, cfg, 3)
	defer pt.Close()
	rep, err := core.RunSchedule(cfg, pt, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalLoss <= 0 {
		t.Fatalf("bad final loss %v", rep.FinalLoss)
	}
	if !rep.Stages[2].Adapted {
		t.Fatalf("coarse-to-fine stage not adapted: %+v", rep.Stages)
	}
	if div := pt.MaxReplicaDivergence(); div != 0 {
		t.Fatalf("replicas diverged by %g across level switches", div)
	}
}

// resumable is what a checkpointed, adapting schedule needs of a backend;
// core.Trainer and ParallelTrainer both are.
type resumable interface {
	core.EpochBackend
	core.AdaptingBackend
	core.StatefulBackend
}

// crashingBackend fails every epoch after the first failAfter.
type crashingBackend struct {
	resumable
	failAfter int
	calls     int
}

var errKilled = errors.New("injected kill")

func (c *crashingBackend) TrainEpoch(res int) (float64, error) {
	if c.calls >= c.failAfter {
		return 0, errKilled
	}
	c.calls++
	return c.resumable.TrainEpoch(res)
}

// A 4-worker run killed mid-schedule and resumed from its checkpoint must
// finish with weights bit-identical to an uninterrupted 4-worker run (the
// library-level guarantee behind `mgtrain -workers 4 -resume`).
func TestDistributedResumeBitExact(t *testing.T) {
	cfg := multigridCfg()
	ref := newMultigridPT(t, cfg, 4)
	defer ref.Close()
	repA, err := core.RunSchedule(cfg, ref, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/ck.gob"
	killed := newMultigridPT(t, cfg, 4)
	defer killed.Close()
	crash := &crashingBackend{resumable: killed, failAfter: 3}
	if _, err := core.RunSchedule(cfg, crash, core.RunOptions{CheckpointPath: path, CheckpointEvery: 1}); !errors.Is(err, errKilled) {
		t.Fatalf("expected injected kill, got %v", err)
	}

	ck, err := core.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newMultigridPT(t, cfg, 4)
	defer resumed.Close()
	repB, err := core.RunSchedule(cfg, resumed, core.RunOptions{Resume: ck, CheckpointPath: path, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameParams(t, "killed-and-resumed workers=4", ref.Net().Params(), resumed.Net().Params())
	if repA.FinalLoss != repB.FinalLoss {
		t.Fatalf("final loss %v vs %v", repA.FinalLoss, repB.FinalLoss)
	}
	if div := resumed.MaxReplicaDivergence(); div != 0 {
		t.Fatalf("resumed replicas diverged by %g", div)
	}
}

// Checkpoints are backend-portable: a snapshot written by a distributed
// run restores into a single-process trainer (and the trajectories agree).
func TestCheckpointPortableAcrossBackends(t *testing.T) {
	cfg := multigridCfg()
	path := t.TempDir() + "/ck.gob"
	killed := newMultigridPT(t, cfg, 2)
	defer killed.Close()
	crash := &crashingBackend{resumable: killed, failAfter: 3}
	if _, err := core.RunSchedule(cfg, crash, core.RunOptions{CheckpointPath: path, CheckpointEvery: 1}); !errors.Is(err, errKilled) {
		t.Fatalf("expected injected kill, got %v", err)
	}
	ck, err := core.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	single := core.NewTrainer(cfg)
	if _, err := core.RunSchedule(cfg, single, core.RunOptions{Resume: ck}); err != nil {
		t.Fatal(err)
	}
	// A 2-worker trajectory differs from single-process in fp summation
	// order, so this checks mechanical portability (shared encoding,
	// restore, continue), not bitwise equality — that bar is held by the
	// workers=1 and same-backend resume tests above.
	loss, err := single.EvalLoss(cfg.FinestRes)
	if err != nil || loss <= 0 {
		t.Fatalf("restored single-process trainer unusable: loss %v, err %v", loss, err)
	}
}

// At workers=1 checkpoints move between backends bit-exactly: a
// single-process run killed mid-schedule and resumed in a 1-worker
// ParallelTrainer, and the reverse, both finish with parameters and final
// loss bit-identical to the uninterrupted single-process run.
func TestCheckpointResumeAcrossBackendsWorkers1BitExact(t *testing.T) {
	cfg := multigridCfg()
	ref := core.NewTrainer(cfg)
	repRef, err := core.RunSchedule(cfg, ref, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	type backend struct {
		resumable
		net func() *unet.UNet
	}
	single := func() backend {
		tr := core.NewTrainer(cfg)
		return backend{tr, func() *unet.UNet { return tr.Net }}
	}
	parallel := func() backend {
		pt := newMultigridPT(t, cfg, 1)
		t.Cleanup(pt.Close)
		return backend{pt, pt.Net}
	}
	for name, pair := range map[string][2]func() backend{
		"single to workers=1": {single, parallel},
		"workers=1 to single": {parallel, single},
	} {
		path := t.TempDir() + "/ck.gob"
		crash := &crashingBackend{resumable: pair[0](), failAfter: 4}
		if _, err := core.RunSchedule(cfg, crash, core.RunOptions{CheckpointPath: path}); !errors.Is(err, errKilled) {
			t.Fatalf("%s: expected injected kill, got %v", name, err)
		}
		ck, err := core.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		resumed := pair[1]()
		rep, err := core.RunSchedule(cfg, resumed, core.RunOptions{Resume: ck})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameParams(t, name, ref.Net.Params(), resumed.net().Params())
		if rep.FinalLoss != repRef.FinalLoss {
			t.Fatalf("%s: final loss %v, uninterrupted %v", name, rep.FinalLoss, repRef.FinalLoss)
		}
	}
}

func TestTrainEpochRejectsBadResolution(t *testing.T) {
	pt, err := NewParallelTrainer(ParallelConfig{
		Workers: 2, Dim: 2, Res: 8, Samples: 4, GlobalBatch: 2,
		LR: 1e-3, Seed: 1, Net: smallNet(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pt.Close()
	if _, err := pt.TrainEpoch(7); err == nil {
		t.Error("resolution 7 (not a multiple of the U-Net minimum) should be rejected")
	}
	if _, err := pt.EvalLoss(0); err == nil {
		t.Error("resolution 0 should be rejected")
	}
}
