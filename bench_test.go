package optcc

// One benchmark per experiment of DESIGN.md's index (theorems T1–T4,
// figures F1–F5, measurements E1–E13), plus micro-benchmarks for the
// substrates. Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/experiments"
	"optcc/internal/geometry"
	"optcc/internal/herbrand"
	"optcc/internal/locking"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/schedule"
	"optcc/internal/sim"
	"optcc/internal/storage"
	"optcc/internal/workload"
	"optcc/internal/wsr"
)

func benchExperiment(b *testing.B, run func() (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Theorems ---

func BenchmarkTheorem1InformationBound(b *testing.B) {
	benchExperiment(b, experiments.T1InformationBound)
}

func BenchmarkTheorem2SerialOptimal(b *testing.B) {
	benchExperiment(b, experiments.T2SerialOptimal)
}

func BenchmarkTheorem3SerializationOptimal(b *testing.B) {
	benchExperiment(b, experiments.T3SerializationOptimal)
}

func BenchmarkTheorem4WeakSerialization(b *testing.B) {
	benchExperiment(b, experiments.T4WeakSerialization)
}

// --- Figures ---

func BenchmarkFigure1WeaklySerializable(b *testing.B) {
	benchExperiment(b, experiments.F1WeaklySerializableHistory)
}

func BenchmarkFigure2TwoPhaseTransform(b *testing.B) {
	benchExperiment(b, experiments.F2TwoPhaseTransformation)
}

func BenchmarkFigure3DeadlockRegion(b *testing.B) {
	benchExperiment(b, experiments.F3ProgressSpace)
}

func BenchmarkFigure4Homotopy(b *testing.B) {
	benchExperiment(b, experiments.F4GeometryOfLocking)
}

func BenchmarkFigure5TwoPhasePrimeTransform(b *testing.B) {
	benchExperiment(b, experiments.F5TwoPhasePrimeTransformation)
}

// --- Measurements ---

func BenchmarkFixpointHierarchy(b *testing.B) {
	benchExperiment(b, experiments.E1FixpointHierarchy)
}

func BenchmarkNoDelayProbability(b *testing.B) {
	benchExperiment(b, experiments.E2NoDelayProbability)
}

func BenchmarkOnlineFixpoints(b *testing.B) {
	benchExperiment(b, experiments.E3OnlineFixpoints)
}

func BenchmarkSimulatedWaitingSweep(b *testing.B) {
	benchExperiment(b, experiments.E4Quick)
}

func BenchmarkPolicy2PLvs2PLPrime(b *testing.B) {
	benchExperiment(b, experiments.E5PolicyComparison)
}

func BenchmarkTreeLocking(b *testing.B) {
	benchExperiment(b, experiments.E6TreeLocking)
}

func BenchmarkDeadlockPolicies(b *testing.B) {
	benchExperiment(b, experiments.E7DeadlockPolicies)
}

func BenchmarkStorageBackendSweep(b *testing.B) {
	benchExperiment(b, experiments.E9Quick)
}

func BenchmarkBatchedDispatchSweep(b *testing.B) {
	benchExperiment(b, experiments.E10Quick)
}

func BenchmarkDurableCommitSweep(b *testing.B) {
	benchExperiment(b, experiments.E13Quick)
}

// --- Substrate micro-benchmarks ---

func BenchmarkHerbrandEvalBanking(b *testing.B) {
	sys := workload.Banking()
	h := core.AllSteps(sys.Format())
	u := herbrand.NewUniverse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := herbrand.Eval(u, sys, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHerbrandSerializableCheck(b *testing.B) {
	sys := workload.Banking()
	checker, err := herbrand.NewChecker(sys)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	h := schedule.Random(sys.Format(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := checker.Serializable(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConflictGraphBanking(b *testing.B) {
	sys := workload.Banking()
	rng := rand.New(rand.NewSource(2))
	h := schedule.Random(sys.Format(), rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := conflict.Serializable(sys, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWSRCheckFigure1(b *testing.B) {
	sys := workload.Figure1()
	checker, err := wsr.NewChecker(sys, wsr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := core.Schedule{{Tx: 0, Idx: 0}, {Tx: 1, Idx: 0}, {Tx: 0, Idx: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := checker.Weak(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleEnumerationBanking(b *testing.B) {
	format := workload.Banking().Format()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		schedule.Enumerate(format, func(core.Schedule) bool { n++; return true })
		if n != 1260 {
			b.Fatalf("enumerated %d", n)
		}
	}
}

func BenchmarkScheduleRankUnrank(b *testing.B) {
	format := workload.Banking().Format()
	rng := rand.New(rand.NewSource(3))
	h := schedule.Random(format, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := schedule.Rank(format, h)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := schedule.Unrank(format, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockTableAcquireRelease(b *testing.B) {
	vars := []core.Var{"a", "b", "c", "d"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := lockmgr.NewTable(lockmgr.Detect)
		for tx := lockmgr.TxID(0); tx < 4; tx++ {
			tab.Register(tx)
			for _, v := range vars {
				tab.Acquire(tx, v, lockmgr.Shared)
			}
		}
		for tx := lockmgr.TxID(0); tx < 4; tx++ {
			tab.ReleaseAll(tx)
		}
	}
}

func BenchmarkLRSOutputsTwoPhase(b *testing.B) {
	sys := workload.Cross()
	ls, err := locking.TwoPhase{}.Transform(sys)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locking.Outputs(ls); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeometryDeadlockRegion(b *testing.B) {
	ls, err := locking.TwoPhase{}.Transform(workload.Cross())
	if err != nil {
		b.Fatal(err)
	}
	sp, err := geometry.NewSpace(ls, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.DeadlockRegion()
	}
}

func BenchmarkSGTReplayBanking(b *testing.B) {
	sys := workload.Banking()
	rng := rand.New(rand.NewSource(4))
	h := schedule.Random(sys.Format(), rng)
	sched := online.NewSGT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := online.Replay(sys, sched, h, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerDecisionLatency(b *testing.B) {
	// Per-request decision cost of each scheduler on a serial stream: the
	// "scheduling time" component of Section 6.
	sys := sim.Instantiate(workload.Banking(), 30)
	h := core.AllSteps(sys.Format())
	for _, sched := range []online.Scheduler{
		online.NewSerial(),
		online.NewStrict2PL(lockmgr.Detect),
		online.NewSGT(),
		online.NewTO(),
		online.NewOCC(),
	} {
		b.Run(sched.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := online.Replay(sys, sched, h, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedVsCentral is the scalability acceptance benchmark: the
// same low-contention multi-user workload through the paper's single
// central scheduler — strict 2PL behind one lock (Mutexed) as one shard —
// versus the sharded concurrent engine at 1, 4 and 16 shards. Sharded
// throughput should sit strictly above the mutexed baseline (and rise with
// shard count) because users only contend on the decision mutexes and
// lock-table shards their steps touch.
func BenchmarkShardedVsCentral(b *testing.B) {
	const jobs = 64
	template := workload.Random(workload.RandomConfig{
		NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 8 * jobs}, 1979)
	run := func(b *testing.B, mk func() online.Scheduler) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			inst := sim.Instantiate(template, jobs)
			m, err := sim.Run(sim.Config{System: inst, Sched: mk(), Users: 16, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if m.Committed != jobs {
				b.Fatalf("committed %d of %d", m.Committed, jobs)
			}
		}
	}
	b.Run("mutexed", func(b *testing.B) {
		run(b, func() online.Scheduler { return online.NewMutexed(online.NewStrict2PL(lockmgr.WoundWait)) })
	})
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sharded-%d", shards), func(b *testing.B) {
			run(b, func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards) })
		})
	}
}

// BenchmarkKVBackendApplyStep measures the storage hot path alone: apply an
// update step (checksummed read + copy-on-write write) and commit, per
// payload size.
func BenchmarkKVBackendApplyStep(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			kv := storage.NewKV(storage.Config{Shards: 4, ValueSize: size})
			kv.Reset(core.DB{"x": 0})
			step := core.Step{Var: "x", Kind: core.Update,
				Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }}
			b.SetBytes(int64(2 * size)) // one payload read + one payload write
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := kv.ApplyStep(0, step); err != nil {
					b.Fatal(err)
				}
				kv.Commit(0)
			}
		})
	}
}

// BenchmarkDiskBackendCommit measures the durable commit hot path per
// fsync policy: one single-write transaction per iteration (update record
// + commit record appended to the WAL), with the fsync cost inline for
// always, amortized over groups of 8 for group, and absent for never.
func BenchmarkDiskBackendCommit(b *testing.B) {
	for _, fs := range []storage.FsyncPolicy{storage.FsyncAlways, storage.FsyncGroup, storage.FsyncNever} {
		b.Run(fs.String(), func(b *testing.B) {
			d, err := storage.NewDisk(storage.Config{Fsync: fs})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Destroy()
			d.Reset(core.DB{"x": 0})
			step := core.Step{Var: "x", Kind: core.Update,
				Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.ApplyStep(i, step); err != nil {
					b.Fatal(err)
				}
				d.Commit(i)
				if fs == storage.FsyncGroup && i%8 == 7 {
					if err := d.GroupSync(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkBackendShardedVsCentral is BenchmarkShardedVsCentral with real
// storage execution: the same low-contention workload, every granted step
// reading and writing 1KB records through the KV backend.
func BenchmarkBackendShardedVsCentral(b *testing.B) {
	const jobs = 64
	template := workload.Random(workload.RandomConfig{
		NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 8 * jobs}, 1979)
	run := func(b *testing.B, shards int, mk func() online.Scheduler) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			inst := sim.Instantiate(template, jobs)
			be := storage.NewKV(storage.Config{Shards: shards, ValueSize: 1024})
			m, err := sim.Run(sim.Config{System: inst, Sched: mk(), Backend: be, Users: 16, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if m.Committed != jobs {
				b.Fatalf("committed %d of %d", m.Committed, jobs)
			}
		}
	}
	b.Run("mutexed", func(b *testing.B) {
		run(b, 1, func() online.Scheduler { return online.NewMutexed(online.NewStrict2PL(lockmgr.WoundWait)) })
	})
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sharded-%d", shards), func(b *testing.B) {
			run(b, shards, func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards) })
		})
	}
}

// BenchmarkBatchedVsUnbatched runs a hot-shard multi-user workload with
// real storage through the sharded runtime at batch 1 and at larger
// parked-retry caps. The workload is the decision-contention flavor of hot
// shard (workload.HotShardDisjoint): every request of 48 users lands on the
// one shard owning the variables, while the lock table sees no conflicts.
// Users decide their own requests, so nothing parks here and the rows
// should sit within noise of each other; the batch cap only matters where
// requests park (E10's lock-contended regime).
func BenchmarkBatchedVsUnbatched(b *testing.B) {
	const (
		jobs   = 64
		shards = 4
		users  = 48
	)
	template := workload.HotShardDisjoint(jobs, shards)
	run := func(b *testing.B, batch int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			inst := sim.Instantiate(template, jobs)
			be := storage.NewKV(storage.Config{Shards: shards, ValueSize: 256})
			m, err := sim.Run(sim.Config{
				System: inst, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
				Backend: be, Users: users, Seed: int64(i), Batch: batch,
			})
			if err != nil {
				b.Fatal(err)
			}
			if m.Committed != jobs {
				b.Fatalf("committed %d of %d", m.Committed, jobs)
			}
		}
	}
	b.Run("unbatched", func(b *testing.B) { run(b, 1) })
	for _, batch := range []int{8, 32} {
		b.Run(fmt.Sprintf("batched-%d", batch), func(b *testing.B) { run(b, batch) })
	}
}

// BenchmarkNativeTOVsShardedTO is the native-scheduler acceptance
// benchmark: the disjoint multi-shard workload (per-transaction private
// variables hashing across every shard, zero conflicts) through the
// Sharded(TO) combinator — single-threaded TO per shard behind shard
// mutexes, grant logs and the ordering rail — versus online.ConcurrentTO,
// whose hot path is a lock-free timestamp-table lookup. With the
// per-shard serialization gone, native TO should sit at or above the
// combinator from 2 shards up.
func BenchmarkNativeTOVsShardedTO(b *testing.B) {
	const (
		jobs  = 64
		users = 16
	)
	template := workload.Disjoint(jobs, 3)
	run := func(b *testing.B, mk func() online.Scheduler) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			inst := sim.Instantiate(template, jobs)
			m, err := sim.Run(sim.Config{System: inst, Sched: mk(), Users: users, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if m.Committed != jobs {
				b.Fatalf("committed %d of %d", m.Committed, jobs)
			}
		}
	}
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("sharded-to-%d", shards), func(b *testing.B) {
			run(b, func() online.Scheduler {
				return online.NewSharded(shards, func() online.Scheduler { return online.NewTO() })
			})
		})
		b.Run(fmt.Sprintf("native-cto-%d", shards), func(b *testing.B) {
			run(b, func() online.Scheduler { return online.NewConcurrentTO(shards) })
		})
	}
}

// BenchmarkNativeSGTVsShardedSGT is the native serialization-graph
// acceptance benchmark: the disjoint multi-shard workload through the
// Sharded(SGT) combinator — single-threaded SGT per shard behind shard
// mutexes, grant logs and the ordering rail — versus
// online.ConcurrentSGT, whose zero-conflict grants are a lock-free marks
// lookup plus liveness loads with no graph lock at all. With the
// per-shard serialization gone, native SGT should sit at or above the
// combinator from 2 shards up.
func BenchmarkNativeSGTVsShardedSGT(b *testing.B) {
	const (
		jobs  = 64
		users = 16
	)
	template := workload.Disjoint(jobs, 3)
	run := func(b *testing.B, mk func() online.Scheduler) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			inst := sim.Instantiate(template, jobs)
			m, err := sim.Run(sim.Config{System: inst, Sched: mk(), Users: users, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if m.Committed != jobs {
				b.Fatalf("committed %d of %d", m.Committed, jobs)
			}
		}
	}
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("sharded-sgt-%d", shards), func(b *testing.B) {
			run(b, func() online.Scheduler {
				return online.NewSharded(shards, func() online.Scheduler { return online.NewSGTAborting() })
			})
		})
		b.Run(fmt.Sprintf("native-csgt-%d", shards), func(b *testing.B) {
			run(b, func() online.Scheduler { return online.NewConcurrentSGTAborting(shards) })
		})
	}
}

// BenchmarkNativeOCCVsShardedOCC is the native optimistic-validation
// acceptance benchmark: the disjoint multi-shard workload through the
// Sharded(OCC) combinator versus online.ConcurrentOCC, whose execution
// and validation paths touch only the shared atomic clock, the
// copy-on-write writer marks and the commit-stamp table — no shard mutex,
// no rail, no global validation critical section. Native OCC should sit
// at or above the combinator from 2 shards up.
func BenchmarkNativeOCCVsShardedOCC(b *testing.B) {
	const (
		jobs  = 64
		users = 16
	)
	template := workload.Disjoint(jobs, 3)
	run := func(b *testing.B, mk func() online.Scheduler) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			inst := sim.Instantiate(template, jobs)
			m, err := sim.Run(sim.Config{System: inst, Sched: mk(), Users: users, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if m.Committed != jobs {
				b.Fatalf("committed %d of %d", m.Committed, jobs)
			}
		}
	}
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("sharded-occ-%d", shards), func(b *testing.B) {
			run(b, func() online.Scheduler {
				return online.NewSharded(shards, func() online.Scheduler { return online.NewOCC() })
			})
		})
		b.Run(fmt.Sprintf("native-cocc-%d", shards), func(b *testing.B) {
			run(b, func() online.Scheduler { return online.NewConcurrentOCC(shards) })
		})
	}
}

func BenchmarkSimThroughput(b *testing.B) {
	for _, mk := range []func() online.Scheduler{
		func() online.Scheduler { return online.NewStrict2PL(lockmgr.WoundWait) },
		func() online.Scheduler { return online.NewSGTAborting() },
		func() online.Scheduler { return online.NewOCC() },
	} {
		sched := mk()
		b.Run(sched.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst := sim.Instantiate(workload.Banking(), 16)
				m, err := sim.Run(sim.Config{
					System:   inst,
					Sched:    mk(),
					Users:    4,
					ExecTime: 10 * time.Microsecond,
					Seed:     int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if m.Committed != 16 {
					b.Fatalf("committed %d", m.Committed)
				}
			}
		})
	}
}
