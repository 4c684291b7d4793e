package online

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"optcc/internal/core"
	"optcc/internal/schedule"
	"optcc/internal/workload"
)

// TestConcurrentOCCDecisionEquivalence is the acceptance property of the
// natively concurrent OCC: under single-goroutine driving it must match
// the single-threaded backward-validation OCC verbatim — the whole replay
// transcript, history by history over the full enumeration, for any shard
// count. With no concurrent validators the epoch machinery degenerates to
// the sequential checks: the commit-stamp probe is (a)/(c) against the
// committed history, the writer-mark scan is (b) against active writers,
// and the clock ticks mirror the sequential increments one for one.
func TestConcurrentOCCDecisionEquivalence(t *testing.T) {
	systems := append(singleShardSystems(),
		workload.Cross(), workload.Chain(), workload.Banking())
	for _, sys := range systems {
		for _, shards := range []int{1, 4} {
			base, native := NewOCC(), NewConcurrentOCC(shards)
			checked := 0
			schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
				bres, berr := Replay(sys, base, h, 0)
				nres, nerr := Replay(sys, native, h, 0)
				if (berr == nil) != (nerr == nil) {
					t.Fatalf("shards=%d on %s: completion mismatch on %v: %v vs %v",
						shards, sys.Name, h, berr, nerr)
				}
				if berr != nil {
					return true
				}
				if bres.Undelayed != nres.Undelayed || bres.Delays != nres.Delays ||
					bres.Aborts != nres.Aborts || !reflect.DeepEqual(bres.Output, nres.Output) {
					t.Fatalf("shards=%d on %s: transcript mismatch on %v:\nbase   %+v\nnative %+v",
						shards, sys.Name, h, bres, nres)
				}
				checked++
				return true
			})
			if checked == 0 {
				t.Fatalf("shards=%d on %s: no histories compared", shards, sys.Name)
			}
		}
	}
}

// TestConcurrentOCCContract covers naming, partition plumbing, and the
// validate → abort → restart discipline on the lost-update anomaly.
func TestConcurrentOCCContract(t *testing.T) {
	s := NewConcurrentOCC(8)
	if s.NumShards() != 8 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if s.Name() != "cocc(8)/backward" {
		t.Fatalf("Name = %q", s.Name())
	}
	sys := workload.LostUpdate()
	s.Begin(sys)
	if d := s.Try(core.StepID{Tx: 0, Idx: 0}); d != Grant {
		t.Fatalf("tx0 read: %v", d)
	}
	if d := s.Try(core.StepID{Tx: 1, Idx: 0}); d != Grant {
		t.Fatalf("tx1 read: %v", d)
	}
	// Tx 1 validates and commits its write of x; tx 0 read x before that
	// commit, so its own validation must fail backward.
	if d := s.Try(core.StepID{Tx: 1, Idx: 1}); d != Grant {
		t.Fatalf("tx1 validating write: %v", d)
	}
	s.Commit(1)
	if d := s.Try(core.StepID{Tx: 0, Idx: 1}); d != AbortTx {
		t.Fatalf("stale validation: %v", d)
	}
	s.Abort(0)
	// The restarted incarnation starts after tx 1's commit: clean run.
	if d := s.Try(core.StepID{Tx: 0, Idx: 0}); d != Grant {
		t.Fatalf("restarted read: %v", d)
	}
	if d := s.Try(core.StepID{Tx: 0, Idx: 1}); d != Grant {
		t.Fatalf("restarted write: %v", d)
	}
	s.Commit(0)
}

// TestConcurrentOCCParallelDrive hammers the lock-free execution and
// validation paths from one goroutine per transaction on disjoint
// variables. Under -race this exercises the shared clock, the phase and
// validation-epoch atomics, the copy-on-write writer marks and the commit
// stamps concurrently; every transaction must commit first try.
func TestConcurrentOCCParallelDrive(t *testing.T) {
	const txs = 32
	sys := &core.System{Name: "cocc-hammer"}
	for i := 0; i < txs; i++ {
		v := core.Var(fmt.Sprintf("priv%d", i))
		sys.Txs = append(sys.Txs, core.Transaction{Steps: []core.Step{
			{Var: v, Kind: core.Read}, {Var: v, Kind: core.Write}, {Var: v, Kind: core.Update},
		}})
	}
	sys.Normalize()
	sched := NewConcurrentOCC(4)
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

// TestConcurrentOCCFinalWriteValidationRace races two validations that
// must not both commit. A reads v, B then writes v, and the two final
// steps — A's write of v, B's write of u — validate concurrently from two
// goroutines (v and u sit on different shards, so the runtime would run
// them on different dispatch loops too). Granting both commits the cycle
// r_A(v) < w_B(v) < w_A(v). Whichever validation draws the later epoch
// must see the other's final-write mark and validating phase and abort;
// a mark published only after validation, or a phase published only
// after the epoch draw, lets both through.
func TestConcurrentOCCFinalWriteValidationRace(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two parallel Ps to race the validations")
	}
	sys := (&core.System{Name: "cocc-final-write", Txs: []core.Transaction{
		{Steps: []core.Step{{Var: "v", Kind: core.Read}, {Var: "v", Kind: core.Write}}},
		{Steps: []core.Step{{Var: "v", Kind: core.Write}, {Var: "u", Kind: core.Write}}},
	}}).Normalize()
	s := NewConcurrentOCC(2)
	if s.ShardOf("v") == s.ShardOf("u") {
		t.Fatal("v and u must sit on different shards")
	}
	const rounds = 200000
	var (
		ready, done atomic.Int64
		b           Decision // B's decision, handed over by done
		wg          sync.WaitGroup
	)
	wg.Add(1)
	go func() { // B's final step, released by the loop below each round
		defer wg.Done()
		for r := int64(1); r <= rounds; r++ {
			for ready.Load() < r {
				runtime.Gosched()
			}
			b = s.Try(core.StepID{Tx: 1, Idx: 1})
			done.Store(r)
		}
	}()
	both := 0
	for r := int64(1); r <= rounds; r++ {
		s.Begin(sys)
		s.Try(core.StepID{Tx: 0, Idx: 0}) // r_A(v)
		s.Try(core.StepID{Tx: 1, Idx: 0}) // w_B(v)
		ready.Store(r)
		a := s.Try(core.StepID{Tx: 0, Idx: 1}) // w_A(v), racing B's final step
		for done.Load() < r {
			runtime.Gosched()
		}
		if a == Grant && b == Grant {
			both++
		}
	}
	wg.Wait()
	if both > 0 {
		t.Fatalf("%d of %d rounds committed both sides of r_A(v) < w_B(v) < w_A(v)", both, rounds)
	}
}
