package online

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/schedule"
	"optcc/internal/workload"
)

// TestConcurrentTODecisionEquivalence is the acceptance property of the
// natively concurrent TO: under single-goroutine driving it must match the
// single-threaded TO verbatim — not just fixpoint membership but the whole
// replay transcript (grant log, delays, aborts), history by history over
// the full enumeration, in both basic and Thomas modes and for any shard
// count. Timestamps are assigned in arrival order by both, so every
// decision is forced to agree.
func TestConcurrentTODecisionEquivalence(t *testing.T) {
	systems := append(singleShardSystems(),
		workload.Cross(), workload.Chain(), workload.Banking())
	for _, sys := range systems {
		for _, thomas := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				mkBase := func() Scheduler {
					if thomas {
						return NewTOThomas()
					}
					return NewTO()
				}
				mkNative := func() Scheduler {
					if thomas {
						return NewConcurrentTOThomas(shards)
					}
					return NewConcurrentTO(shards)
				}
				base, native := mkBase(), mkNative()
				checked := 0
				schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
					bres, berr := Replay(sys, base, h, 0)
					nres, nerr := Replay(sys, native, h, 0)
					if (berr == nil) != (nerr == nil) {
						t.Fatalf("thomas=%v shards=%d on %s: completion mismatch on %v: %v vs %v",
							thomas, shards, sys.Name, h, berr, nerr)
					}
					if berr != nil {
						return true
					}
					if bres.Undelayed != nres.Undelayed || bres.Delays != nres.Delays ||
						bres.Aborts != nres.Aborts || !reflect.DeepEqual(bres.Output, nres.Output) {
						t.Fatalf("thomas=%v shards=%d on %s: transcript mismatch on %v:\nbase   %+v\nnative %+v",
							thomas, shards, sys.Name, h, bres, nres)
					}
					checked++
					return true
				})
				if checked == 0 {
					t.Fatalf("thomas=%v shards=%d on %s: no histories compared", thomas, shards, sys.Name)
				}
			}
		}
	}
}

// TestConcurrentTOContract covers the partition plumbing and the restart
// timestamp discipline.
func TestConcurrentTOContract(t *testing.T) {
	s := NewConcurrentTO(8)
	if s.NumShards() != 8 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if s.Name() != "cto(8)/basic" {
		t.Fatalf("Name = %q", s.Name())
	}
	if NewConcurrentTOThomas(2).Name() != "cto(2)/thomas" {
		t.Fatal("thomas name wrong")
	}
	sys := workload.LostUpdate()
	s.Begin(sys)
	if d := s.Try(core.StepID{Tx: 0, Idx: 0}); d != Grant {
		t.Fatalf("first read: %v", d)
	}
	// Tx 1 arrives later (newer timestamp), writes, and retires.
	if d := s.Try(core.StepID{Tx: 1, Idx: 0}); d != Grant {
		t.Fatalf("tx1 read: %v", d)
	}
	if d := s.Try(core.StepID{Tx: 1, Idx: 1}); d != Grant {
		t.Fatalf("tx1 write: %v", d)
	}
	s.Commit(1)
	// Tx 0's write is now older than the variable's read/write timestamps:
	// basic TO aborts it, and the restart must get a fresh timestamp that
	// succeeds.
	if d := s.Try(core.StepID{Tx: 0, Idx: 1}); d != AbortTx {
		t.Fatalf("stale write: %v", d)
	}
	s.Abort(0)
	if d := s.Try(core.StepID{Tx: 0, Idx: 0}); d != Grant {
		t.Fatalf("restarted read: %v", d)
	}
	if d := s.Try(core.StepID{Tx: 0, Idx: 1}); d != Grant {
		t.Fatalf("restarted write: %v", d)
	}
}

// TestConcurrentTOParallelDrive hammers the lock-free hot path from one
// goroutine per transaction on disjoint variables (the contract-legal
// concurrency: no two in-flight steps share a variable). Under -race this
// exercises the atomic clock, the per-transaction timestamp slots and the
// timestamp table concurrently; every transaction must commit first try.
func TestConcurrentTOParallelDrive(t *testing.T) {
	const txs = 32
	sys := &core.System{Name: "cto-hammer"}
	for i := 0; i < txs; i++ {
		v := core.Var(fmt.Sprintf("priv%d", i))
		sys.Txs = append(sys.Txs, core.Transaction{Steps: []core.Step{
			{Var: v, Kind: core.Read}, {Var: v, Kind: core.Write}, {Var: v, Kind: core.Update},
		}})
	}
	sys.Normalize()
	sched := NewConcurrentTO(4)
	sched.Begin(sys)
	var wg sync.WaitGroup
	for tx := 0; tx < txs; tx++ {
		wg.Add(1)
		go func(tx int) {
			defer wg.Done()
			for idx := 0; idx < len(sys.Txs[tx].Steps); idx++ {
				if d := sched.Try(core.StepID{Tx: tx, Idx: idx}); d != Grant {
					t.Errorf("tx %d step %d: %v", tx, idx, d)
					return
				}
			}
			sched.Commit(tx)
		}(tx)
	}
	wg.Wait()
}

// TestShardedRailSerializable re-runs the rail's acceptance property
// across shard counts (the rail is striped one stripe per shard): whatever
// completes under the striped rail must be conflict-serializable, for
// delay-based, abort-based and lock-based wrapped schedulers alike. The CI
// stress job repeats this under -race.
func TestShardedRailSerializable(t *testing.T) {
	factories := []struct {
		name    string
		factory func() Scheduler
	}{
		{"serial", func() Scheduler { return NewSerial() }},
		{"strict-2pl/woundwait", func() Scheduler { return NewStrict2PL(lockmgr.WoundWait) }},
		{"to/basic", func() Scheduler { return NewTO() }},
	}
	systems := []*core.System{workload.Cross(), workload.Banking(), workload.CrossPairs(3)}
	for _, shards := range []int{2, 4, 8} {
		for _, sys := range systems {
			for _, tc := range factories {
				sched := NewSharded(shards, tc.factory)
				rng := rand.New(rand.NewSource(int64(shards) * 131))
				completed := 0
				for trial := 0; trial < 12; trial++ {
					h := schedule.Random(sys.Format(), rng)
					res, err := Replay(sys, sched, h, 50)
					if err != nil {
						continue // abort storms may blow the restart budget; CSR is the property
					}
					completed++
					final := res.FinalSchedule(sys)
					csr, _, err := conflict.Serializable(sys, final)
					if err != nil {
						t.Fatal(err)
					}
					if !csr {
						t.Fatalf("shards=%d %s on %s: non-serializable final schedule %v from %v",
							shards, tc.name, sys.Name, final, h)
					}
				}
				if completed == 0 {
					t.Fatalf("shards=%d %s on %s: no trial completed", shards, tc.name, sys.Name)
				}
			}
		}
	}
}
