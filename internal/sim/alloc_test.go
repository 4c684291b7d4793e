package sim

// The hot-path allocation harness: BenchmarkHotPathAllocs measures heap
// allocations per committed transaction through the full runtime
// (request→grant→execute→commit on live dispatch and user goroutines), and
// TestHotPathAllocCeilings enforces hard ceilings on the same
// measurements in a normal `go test` run, so an allocation regression
// breaks the build instead of only drifting a benchmark number.
//
// The op is one committed transaction of three steps. The workload cycles
// b.N jobs over a fixed pool of variables, so after the first cycle every
// lock entry, map bucket and scratch buffer is warm and the steady state
// is measured; setup allocations (goroutines, channels, presized
// histograms, per-variable state) amortize to zero as b.N grows.
// Occasional collisions between concurrent users on a shared variable
// exercise the parked path without aborts (Detect policy, single-variable
// transactions cannot deadlock).

import (
	"testing"

	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// hotPathVars is the variable-pool size the jobs cycle over: large enough
// that 4 users rarely collide, small enough that state warms quickly.
const hotPathVars = 256

// hotPathBench returns a benchmark running b.N three-step transactions
// through the given scheduler and backend; allocations are counted from
// after setup (ResetTimer) to completion.
func hotPathBench(mk func() online.Scheduler, mkBackend func() storage.Backend) func(b *testing.B) {
	return func(b *testing.B) {
		template := workload.Disjoint(hotPathVars, 3)
		inst := Instantiate(template, b.N)
		var be storage.Backend
		if mkBackend != nil {
			be = mkBackend()
		}
		sched := mk()
		b.ReportAllocs()
		b.ResetTimer()
		m, err := Run(Config{System: inst, Sched: sched, Backend: be, Users: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if m.Committed != b.N {
			b.Fatalf("committed %d of %d", m.Committed, b.N)
		}
	}
}

func noopBackend() storage.Backend { return storage.NewNoop() }

func kvRecycleBackend() storage.Backend {
	return storage.NewKV(storage.Config{Shards: 4, ValueSize: 256, Recycle: true})
}

// snapshotBench measures the read-only snapshot fast path: every
// transaction is all-Read, so the runtime serves each one from a pinned
// multiversion-KV snapshot — no grants, no rail traffic, no shard
// mutexes — and the warmed-up path must not allocate at all.
func snapshotBench(b *testing.B) {
	template := workload.ReadMostly(workload.ReadMostlyConfig{
		Jobs: hotPathVars, Steps: 3, ReadFrac: 1, Vars: hotPathVars, HotVars: 1,
	}, 1)
	inst := Instantiate(template, b.N)
	be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 256})
	sched := online.NewConcurrentMV(4)
	b.ReportAllocs()
	b.ResetTimer()
	m, err := Run(Config{System: inst, Sched: sched, Backend: be, Users: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if m.Committed != b.N {
		b.Fatalf("committed %d of %d", m.Committed, b.N)
	}
	if m.SnapshotReads != int64(3*b.N) {
		b.Fatalf("snapshot reads %d, want %d", m.SnapshotReads, 3*b.N)
	}
}

// hotPathCases are the measured configurations and their enforced
// ceilings (allocs per committed three-step transaction):
//
//   - mutexed-noop: the acceptance target — the sharded dispatch runtime
//     driving Mutexed strict 2PL with the no-op backend performs ZERO
//     heap allocations per transaction in steady state.
//   - sharded-2pl-noop: natively sharded strict 2PL also measures 0 in
//     steady state; the ceiling of 4 leaves headroom for collision-path
//     bookkeeping (wound lists, breaker scans) on slower boxes.
//   - mutexed-kv: real storage with payload recycling measures 3 — one
//     immutable Record struct per write step; the payload bytes
//     themselves are pooled. Ceiling 8 leaves restart headroom.
//   - mv-snapshot-kv: read-only transactions through the multiversion
//     snapshot path perform ZERO allocations — acquire, chain-walk reads
//     and release touch no lock and build nothing on the heap.
//   - csgt-noop: the natively concurrent SGT measures 0 in steady state —
//     zero-conflict grants take the lock-free path, marks and source
//     scratch are amortized per-entry slices, commits retire edgeless
//     singletons. Ceiling 4 leaves headroom for the striped insert's
//     collision-path slices on slower boxes.
//   - cocc-noop: the natively concurrent OCC measures 2 — the
//     copy-on-write writer-mark publish (slice + published header) on each
//     transaction's first write of a variable; footprints live in a
//     Begin-time slab. Ceiling 4 leaves restart headroom.
var hotPathCases = []struct {
	name    string
	ceiling int64
	bench   func(b *testing.B)
}{
	{"mutexed-noop", 0, hotPathBench(func() online.Scheduler {
		return online.NewMutexed(online.NewStrict2PL(lockmgr.Detect))
	}, noopBackend)},
	{"sharded-2pl-noop", 4, hotPathBench(func() online.Scheduler {
		return online.NewConcurrentStrict2PL(lockmgr.Detect, 4)
	}, noopBackend)},
	{"mutexed-kv", 8, hotPathBench(func() online.Scheduler {
		return online.NewMutexed(online.NewStrict2PL(lockmgr.Detect))
	}, kvRecycleBackend)},
	{"mv-snapshot-kv", 0, snapshotBench},
	{"csgt-noop", 4, hotPathBench(func() online.Scheduler {
		return online.NewConcurrentSGTAborting(4)
	}, noopBackend)},
	{"cocc-noop", 4, hotPathBench(func() online.Scheduler {
		return online.NewConcurrentOCC(4)
	}, noopBackend)},
}

// BenchmarkHotPathAllocs reports ns/op and allocs/op for every hot-path
// configuration; run with -benchmem to see the allocation columns.
func BenchmarkHotPathAllocs(b *testing.B) {
	for _, c := range hotPathCases {
		b.Run(c.name, c.bench)
	}
}

// TestHotPathAllocCeilings is the allocation regression gate: it runs each
// hot-path benchmark through testing.Benchmark and fails when
// AllocsPerOp exceeds the configuration's ceiling. It runs in every plain
// `go test` (CI has a dedicated no-race step); under the race detector the
// instrumentation itself allocates, so the ceilings are skipped there.
func TestHotPathAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; ceilings run in the no-race CI step")
	}
	if testing.Short() {
		t.Skip("short mode: skipping benchmark-backed ceilings")
	}
	for _, c := range hotPathCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(c.bench)
			if got := r.AllocsPerOp(); got > c.ceiling {
				t.Errorf("%s: %d allocs per committed tx, ceiling %d (bytes/op %d, N %d)",
					c.name, got, c.ceiling, r.AllocedBytesPerOp(), r.N)
			} else {
				t.Logf("%s: %d allocs/tx (ceiling %d), %d B/tx, N=%d",
					c.name, got, c.ceiling, r.AllocedBytesPerOp(), r.N)
			}
		})
	}
}
