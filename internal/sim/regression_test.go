package sim

// Regression tests for the commit-path correctness fixes:
//
//  1. Metrics.Output must contain only committed transactions — a restart
//     budget exhausted on an aborted, rolled-back final attempt used to
//     leak its undone steps into the "committed" schedule.
//  2. A failed Backend.ApplyStep must abort the transaction through the
//     normal path: no later step may run and, above all, no commit (backend
//     or scheduler) may follow a partial application.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
)

// TestOutputOnlyCommittedOnBudgetExhaustion runs an abort-heavy hot-shard
// workload under no-wait with a single-restart budget, so some transactions
// exhaust their budget with a rolled-back final attempt (each step sleeps
// hotExecTime under its locks, so the transactions overlap and conflict). Output must then
// contain exactly the committed transactions — whole and final-attempt only
// — and replaying it must reproduce the committed backend state.
func TestOutputOnlyCommittedOnBudgetExhaustion(t *testing.T) {
	cfgs := []struct {
		name  string
		mk    func() online.Scheduler
		batch int
	}{
		{"central/2pl-nowait", func() online.Scheduler { return online.NewStrict2PL(lockmgr.NoWait) }, 0},
		{"2pl-sharded4/nowait", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.NoWait, 4) }, 0},
		{"2pl-sharded4/nowait/batch8", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.NoWait, 4) }, 8},
	}
	for _, cfg := range cfgs {
		t.Run(cfg.name, func(t *testing.T) {
			exhausted := false
			for seed := int64(1); seed <= 6; seed++ {
				inst := Instantiate(hotShardSystem(), 12)
				be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 32})
				m, err := Run(Config{
					System: inst, Sched: cfg.mk(), Backend: be,
					Users: 6, Seed: seed, MaxRestarts: 1, Batch: cfg.batch, ExecTime: hotExecTime,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if m.Committed < inst.NumTxs() {
					exhausted = true
				}
				// Output must consist of whole transactions only, and as
				// many as committed.
				steps := map[int]int{}
				for _, id := range m.Output {
					steps[id.Tx]++
				}
				if len(steps) != m.Committed {
					t.Fatalf("seed %d: output holds %d transactions, committed %d", seed, len(steps), m.Committed)
				}
				for tx, n := range steps {
					if n != len(inst.Txs[tx].Steps) {
						t.Fatalf("seed %d: output holds %d of %d steps of tx %d", seed, n, len(inst.Txs[tx].Steps), tx)
					}
				}
				if !m.Output.LegalPrefix(inst.Format()) {
					t.Fatalf("seed %d: output not a legal prefix", seed)
				}
				// The committed schedule must replay to the committed state:
				// the old bug left rolled-back steps in Output, which
				// diverges here.
				st, err := core.ExecPrefix(inst, m.Output, inst.InitialStates()[0])
				if err != nil {
					t.Fatalf("seed %d: replay: %v", seed, err)
				}
				if got := be.State(); !got.Equal(st.Global) {
					t.Fatalf("seed %d: backend state diverged from committed replay:\n  backend %v\n  replay  %v", seed, got, st.Global)
				}
			}
			if !exhausted {
				t.Fatal("no run exhausted its restart budget; regression not exercised")
			}
		})
	}
}

// failingBackend wraps a real backend and fails the apply of one designated
// step (transaction failTx, step position failIdx within the attempt),
// recording every Commit and Rollback so the test can prove no commit
// followed the failure.
type failingBackend struct {
	storage.Backend
	failTx  int
	failIdx int

	mu        sync.Mutex
	pos       map[int]int // successful applies in the current attempt
	commits   map[int]int
	rollbacks map[int]int
	failed    bool
}

func newFailingBackend(inner storage.Backend, failTx, failIdx int) *failingBackend {
	return &failingBackend{
		Backend: inner, failTx: failTx, failIdx: failIdx,
		pos: map[int]int{}, commits: map[int]int{}, rollbacks: map[int]int{},
	}
}

var errInjected = errors.New("injected storage failure")

func (b *failingBackend) ApplyStep(tx int, step core.Step) error {
	b.mu.Lock()
	if tx == b.failTx && b.pos[tx] == b.failIdx && !b.failed {
		b.failed = true
		b.mu.Unlock()
		return errInjected
	}
	b.pos[tx]++
	b.mu.Unlock()
	return b.Backend.ApplyStep(tx, step)
}

func (b *failingBackend) Commit(tx int) {
	b.mu.Lock()
	b.commits[tx]++
	if b.failed && tx == b.failTx {
		b.mu.Unlock()
		panic("commit after failed apply")
	}
	delete(b.pos, tx)
	b.mu.Unlock()
	b.Backend.Commit(tx)
}

func (b *failingBackend) Rollback(tx int) {
	b.mu.Lock()
	b.rollbacks[tx]++
	delete(b.pos, tx)
	b.mu.Unlock()
	b.Backend.Rollback(tx)
}

// TestNoCommitAfterFailedApply injects an apply failure — once mid-
// transaction and once on the final step, whose grant has already marked
// the transaction committed — and requires, for a plain scheduler (central,
// wrapped in Mutexed by Run) and a sharded one (batched and not): the run
// reports the error, the failed
// transaction is rolled back and never committed, and every other
// transaction still commits exactly once.
func TestNoCommitAfterFailedApply(t *testing.T) {
	stepCount := len(hotShardSystem().Txs[0].Steps)
	cfgs := []struct {
		name  string
		mk    func() online.Scheduler
		batch int
	}{
		{"central/2pl-woundwait", func() online.Scheduler { return online.NewStrict2PL(lockmgr.WoundWait) }, 0},
		{"2pl-sharded4/woundwait", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) }, 0},
		{"2pl-sharded4/woundwait/batch8", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) }, 8},
	}
	for _, cfg := range cfgs {
		for _, failIdx := range []int{1, stepCount - 1} {
			t.Run(fmt.Sprintf("%s/failstep%d", cfg.name, failIdx), func(t *testing.T) {
				const jobs = 8
				inst := Instantiate(hotShardSystem(), jobs)
				be := newFailingBackend(storage.NewKV(storage.Config{Shards: 4, ValueSize: 32}), 0, failIdx)
				_, err := Run(Config{
					System: inst, Sched: cfg.mk(), Backend: be,
					Users: 4, Seed: 5, Batch: cfg.batch,
				})
				if err == nil {
					t.Fatal("run swallowed the injected apply failure")
				}
				if !errors.Is(err, errInjected) {
					t.Fatalf("unexpected error: %v", err)
				}
				be.mu.Lock()
				defer be.mu.Unlock()
				if be.commits[0] != 0 {
					t.Errorf("failed transaction committed %d times", be.commits[0])
				}
				if be.rollbacks[0] == 0 {
					t.Error("failed transaction never rolled back")
				}
				for tx := 1; tx < jobs; tx++ {
					if be.commits[tx] != 1 {
						t.Errorf("tx %d committed %d times, want 1", tx, be.commits[tx])
					}
				}
			})
		}
	}
}
