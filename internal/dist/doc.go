// Package dist provides the distributed-training substrate of the
// reproduction: a point-to-point Transport abstraction with an in-process
// channel implementation and a wire implementation (TCPTransport:
// length-prefixed frames over a persistent full mesh, heartbeat failure
// detection, bounded send queues), bandwidth-optimal ring allreduce (plus
// the naive all-to-all baseline it is benchmarked against), a
// data-parallel ParallelTrainer whose goroutine workers stand in for the
// paper's MPI ranks — or, given an external Transport, one rank of a
// multi-process world — and slab-decomposed model-parallel inference with
// halo exchange. FaultTransport injects deterministic drops, delays and
// rank kills for testing; the membership layer turns every failure into a
// timely error (never a hang) and lets survivors agree on a shrunken
// world and resume from the last checkpoint (elastic fault tolerance).
// Each ParallelTrainer replica is a core.Trainer — the model, loss,
// optimizer, arena, data source and checkpoint encoding have one owner —
// plus the communicator, bucket plan and overlap state of the allreduce;
// a 1-worker world runs the trainer's own epoch. ParallelTrainer trains at
// a per-epoch resolution and implements core.EpochBackend, so
// core.RunSchedule drives every multigrid strategy data-parallel, with
// checkpoint/resume through the trainers' ExportState/ImportState.
//
// The paper (§3.2) trains on megavoxel domains by sharding each global
// mini-batch across devices, computing local gradients of the variational
// loss, and averaging them with an allreduce before identical optimizer
// steps — which keeps every replica bit-for-bit synchronized (Eq. 15's
// worker-count independence). ParallelTrainer reproduces exactly that
// structure at laptop scale; internal/perfmodel projects the same code
// path onto the paper's Azure and Bridges2 clusters.
package dist
