package sim

// Coverage for the batched dispatch runtime (Config.Batch > 1): intake
// coalescing on the per-shard dispatch loops, the batched parked-retry
// scan, and the storage group-commit pipeline. CI runs this file under
// -race; the invariants must match the unbatched runtime exactly — batching
// only changes how many decisions share a critical section, never which
// decisions are made legal.

import (
	"fmt"
	"sync"
	"testing"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// hotShardSystem is the batching sweet spot: every transaction hammers a
// two-variable hot set, so nearly all traffic lands on one or two dispatch
// loops and intake queues actually build up (workload.HotShard, shared with
// experiment E10 and BenchmarkBatchedVsUnbatched).
func hotShardSystem() *core.System { return workload.HotShard() }

// TestBatchedDispatchCompletes: every concurrent scheduler must drive all
// jobs to commit through the batched intake path, with serializable output,
// across batch sizes from degenerate to larger than the user count.
func TestBatchedDispatchCompletes(t *testing.T) {
	inst := Instantiate(workload.Banking(), 12)
	for _, batch := range []int{2, 8, 64} {
		for _, cs := range concurrentSchedulers() {
			t.Run(fmt.Sprintf("batch%d/%s", batch, cs.Name()), func(t *testing.T) {
				m, err := Run(Config{System: inst, Sched: cs, Users: 6, Seed: 99, Batch: batch})
				if err != nil {
					t.Fatal(err)
				}
				if m.Committed != 12 {
					t.Fatalf("committed %d of 12 (aborts=%d breaks=%d)", m.Committed, m.Aborts, m.DeadlockBreaks)
				}
				if !m.Output.Legal(inst.Format()) {
					t.Fatal("output illegal")
				}
				csr, _, err := conflict.Serializable(inst, m.Output)
				if err != nil {
					t.Fatal(err)
				}
				if !csr {
					t.Error("non-serializable output")
				}
			})
		}
	}
}

// TestBatchedHotShard: the hot-shard stress against real storage with group
// commit on — the configuration BenchmarkBatchedVsUnbatched measures — must
// preserve the replay invariant under heavy conflict traffic.
func TestBatchedHotShard(t *testing.T) {
	for _, batch := range []int{2, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("batch%d/seed%d", batch, seed), func(t *testing.T) {
				checkReplayInvariant(t, "2pl-sharded4/woundwait",
					func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) },
					hotShardSystem(), 16, 8, 64, seed, batch)
			})
		}
	}
}

// TestBatchedPlainScheduler: a plain scheduler, which Run wraps in Mutexed
// on one dispatch loop, coalesces its intake too; results must be
// indistinguishable from unbatched runs.
func TestBatchedPlainScheduler(t *testing.T) {
	inst := Instantiate(workload.Cross(), 10)
	for _, batch := range []int{4, 32} {
		m, err := Run(Config{System: inst, Sched: online.NewStrict2PL(lockmgr.WoundWait), Users: 5, Seed: 7, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != 10 {
			t.Fatalf("batch %d: committed %d of 10", batch, m.Committed)
		}
		if !m.Output.Legal(inst.Format()) {
			t.Fatalf("batch %d: output illegal", batch)
		}
	}
}

// TestGroupCommitPipelineUsed: with Batch > 1 and a backend, commits must
// flow through the group-commit pipeline (undo logs discarded on lanes,
// locks released per group) and every transaction must still commit exactly
// once.
func TestGroupCommitPipelineUsed(t *testing.T) {
	inst := Instantiate(hotShardSystem(), 12)
	be := &commitCountingBackend{Backend: storage.NewKV(storage.Config{Shards: 4, ValueSize: 32}), commits: map[int]int{}}
	m, err := Run(Config{
		System:  inst,
		Sched:   online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4),
		Backend: be,
		Users:   6,
		Seed:    13,
		Batch:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != 12 {
		t.Fatalf("committed %d of 12", m.Committed)
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	for tx := 0; tx < 12; tx++ {
		if be.commits[tx] != 1 {
			t.Errorf("tx %d committed %d times on the backend", tx, be.commits[tx])
		}
	}
}

// commitCountingBackend counts Backend.Commit calls per transaction.
type commitCountingBackend struct {
	storage.Backend
	mu      sync.Mutex
	commits map[int]int
}

func (b *commitCountingBackend) Commit(tx int) {
	b.mu.Lock()
	b.commits[tx]++
	b.mu.Unlock()
	b.Backend.Commit(tx)
}

// TestShardedNameDuringRun hammers Scheduler.Name concurrently with a full
// sharded run: reporting a run while it is in flight must be race-free (the
// name is fixed at construction — regression for the lazy Name write).
func TestShardedNameDuringRun(t *testing.T) {
	scheds := []online.ConcurrentScheduler{
		online.NewSharded(4, func() online.Scheduler { return online.NewStrict2PL(lockmgr.WoundWait) }),
		online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4),
	}
	inst := Instantiate(workload.Banking(), 8)
	for _, cs := range scheds {
		want := cs.Name()
		stop := make(chan struct{})
		var hammer sync.WaitGroup
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if got := cs.Name(); got != want {
						t.Errorf("Name changed mid-run: %q != %q", got, want)
						return
					}
				}
			}
		}()
		m, err := Run(Config{System: inst, Sched: cs, Users: 4, Seed: 21, Batch: 4})
		close(stop)
		hammer.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != 8 {
			t.Fatalf("%s committed %d of 8", want, m.Committed)
		}
	}
}
