package sim

// Durable-backend coverage for both runtimes: the replay invariant now has
// to hold twice — once against the live disk backend, and again against
// the state OpenDisk recovers after the backend is closed. The disk
// backend buffers every transaction's writes until commit, which is what
// makes even the natively concurrent non-strict TO scheduler recoverable.

import (
	"fmt"
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// checkDurableReplay runs the configuration on a fresh disk backend,
// checks the replay invariant against the live state, then closes the
// store, recovers it with OpenDisk, and checks the invariant again on the
// recovered state. Returns the run metrics.
func checkDurableReplay(t *testing.T, name string, mk func() online.Scheduler, template *core.System, jobs, users int, seed int64, batch int, fsync storage.FsyncPolicy) *Metrics {
	t.Helper()
	inst := Instantiate(template, jobs)
	dir := t.TempDir()
	be, err := storage.NewDisk(storage.Config{Dir: dir, Fsync: fsync})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(Config{System: inst, Sched: mk(), Backend: be, Users: users, Seed: seed, Batch: batch})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if m.Committed != jobs {
		t.Fatalf("%s committed %d of %d (aborts=%d)", name, m.Committed, jobs, m.Aborts)
	}
	replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
	if err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}
	live := be.State()
	if !live.Equal(replay) {
		t.Fatalf("%s: live disk state != committed replay\n  live   %v\n  replay %v", name, live, replay)
	}
	if err := be.Close(); err != nil {
		t.Fatalf("%s: close: %v", name, err)
	}
	r, err := storage.OpenDisk(storage.Config{Dir: dir})
	if err != nil {
		t.Fatalf("%s: recovery: %v", name, err)
	}
	defer r.Close()
	if got := r.State(); !got.Equal(replay) {
		t.Fatalf("%s: recovered state != committed replay\n  recovered %v\n  replay    %v", name, got, replay)
	}
	if ds := r.DurabilityStats(); ds.WALTruncated != 0 {
		t.Fatalf("%s: clean shutdown recovered with WALTruncated=%d", name, ds.WALTruncated)
	}
	return m
}

// TestDiskBackendReplayAndRecovery: strict schedulers on the disk
// backend — plain (central, wrapped in Mutexed by Run) and sharded —
// across batching modes and all three fsync policies: the committed
// replay must match the live state AND the recovered state.
func TestDiskBackendReplayAndRecovery(t *testing.T) {
	scheds := []struct {
		name string
		mk   func() online.Scheduler
	}{
		{"central/serial", func() online.Scheduler { return online.NewSerial() }},
		{"central/2pl-woundwait", func() online.Scheduler { return online.NewStrict2PL(lockmgr.WoundWait) }},
		{"2pl-sharded4/woundwait", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) }},
	}
	for _, fsync := range []storage.FsyncPolicy{storage.FsyncAlways, storage.FsyncGroup, storage.FsyncNever} {
		for _, batch := range []int{1, 8} {
			for _, sc := range scheds {
				name := fmt.Sprintf("%s/fsync-%s/batch%d", sc.name, fsync, batch)
				t.Run(name, func(t *testing.T) {
					m := checkDurableReplay(t, name, sc.mk, workload.Banking(), 12, 6, 42, batch, fsync)
					if fsync != storage.FsyncNever && m.Fsyncs == 0 {
						t.Errorf("%s: no fsyncs recorded in metrics", name)
					}
					if m.WALBytes == 0 {
						t.Errorf("%s: no WAL bytes recorded in metrics", name)
					}
				})
			}
		}
	}
}

// TestDiskBufferedNonStrictRecovery: the natively concurrent TO scheduler
// is non-strict, but write-buffered execution logs only commit records, so
// the replay AND recovery invariants hold on a conflict-free workload.
func TestDiskBufferedNonStrictRecovery(t *testing.T) {
	for _, batch := range []int{1, 8} {
		name := fmt.Sprintf("cto4/buffered/batch%d", batch)
		t.Run(name, func(t *testing.T) {
			m := checkDurableReplay(t, name,
				func() online.Scheduler { return online.NewConcurrentTO(4) },
				workload.Disjoint(16, 2), 16, 8, 7, batch, storage.FsyncGroup)
			if m.Fsyncs == 0 {
				t.Errorf("%s: no fsyncs recorded", name)
			}
		})
	}
}

// TestDiskRecoveryNsMetric: a run on a backend produced by OpenDisk
// carries the recovery wall time into the metrics.
func TestDiskRecoveryNsMetric(t *testing.T) {
	dir := t.TempDir()
	seed, err := storage.NewDisk(storage.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seed.Reset(core.DB{"x": 1})
	seed.Close()
	be, err := storage.OpenDisk(storage.Config{Dir: dir, Fsync: storage.FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	inst := Instantiate(workload.Banking(), 6)
	m, err := Run(Config{System: inst, Sched: online.NewStrict2PL(lockmgr.WoundWait), Backend: be, Users: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.RecoveryNs <= 0 {
		t.Errorf("RecoveryNs = %d, want > 0 after OpenDisk", m.RecoveryNs)
	}
	if m.Fsyncs == 0 {
		t.Errorf("Fsyncs = 0 on a durable run")
	}
}

// TestDiskSyncFailureSurfacesAsRunError: a durable backend whose fsync
// fails mid-run must fail the run — silent durability loss is the bug
// class the durability tests exist to rule out. Covers the group-commit
// pipeline's OnFail path, which every durable commit takes.
func TestDiskSyncFailureSurfacesAsRunError(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		efs := storage.NewErrFS(storage.OSFS{})
		be, err := storage.NewDisk(storage.Config{Dir: t.TempDir(), FS: efs, Fsync: storage.FsyncGroup})
		if err != nil {
			t.Fatal(err)
		}
		// Fail an operation far enough in to land inside the run (the
		// Reset consumes the first two).
		efs.FailAt(10)
		inst := Instantiate(workload.Banking(), 8)
		sched := online.NewConcurrentStrict2PL(lockmgr.WoundWait, 2)
		if _, err := Run(Config{System: inst, Sched: sched, Backend: be, Users: 4, Seed: 3}); err == nil {
			t.Fatal("run with injected fsync failure reported success")
		}
	})
}
