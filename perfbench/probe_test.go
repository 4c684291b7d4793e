package main

import (
	"testing"
	"time"

	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
)

// TestWrappersKeepInterfaces: a wrapped scheduler or backend implements
// exactly the optional interfaces of the object it wraps, so sim and the
// group-commit pipeline choose the same code paths with the probe on.
func TestWrappersKeepInterfaces(t *testing.T) {
	rec := newRecorder(time.Now(), 1, 1, 0, false)
	scheds := []online.Scheduler{
		online.NewSerial(),
		online.NewStrict2PL(lockmgr.WoundWait),
		online.NewSGT(),
		online.NewTO(),
		online.NewOCC(),
		online.NewMutexed(online.NewStrict2PL(lockmgr.WoundWait)),
		online.NewSharded(2, func() online.Scheduler { return online.NewStrict2PL(lockmgr.WoundWait) }),
		online.NewConcurrentStrict2PL(lockmgr.WoundWait, 2),
		online.NewConcurrentTO(2),
		online.NewConcurrentSGT(2),
		online.NewConcurrentOCC(2),
		online.NewConcurrentMV(2),
	}
	for _, s := range scheds {
		w, err := wrapSched(s, rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			is   func(any) bool
		}{
			{"ConcurrentScheduler", func(x any) bool { _, ok := x.(online.ConcurrentScheduler); return ok }},
			{"BatchTrier", func(x any) bool { _, ok := x.(online.BatchTrier); return ok }},
			{"SnapshotSource", func(x any) bool { _, ok := x.(online.SnapshotSource); return ok }},
		} {
			if c.is(s) != c.is(w) {
				t.Errorf("%s: wrapped implements %s = %v, wrapped scheduler %v", s.Name(), c.name, c.is(w), c.is(s))
			}
		}
	}

	disk, err := storage.NewDisk(storage.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	backends := []storage.Backend{storage.NewKV(storage.Config{Shards: 2}), storage.NewNoop(), disk}
	for _, b := range backends {
		w, err := wrapBackend(b, rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			is   func(any) bool
		}{
			{"SnapshotBackend", func(x any) bool { _, ok := x.(storage.SnapshotBackend); return ok }},
			{"GroupSyncer", func(x any) bool { _, ok := x.(storage.GroupSyncer); return ok }},
			{"DurableBackend", func(x any) bool { _, ok := x.(storage.DurableBackend); return ok }},
			{"SyncCoalesces", func(x any) bool { _, ok := x.(syncCoalescer); return ok }},
		} {
			if c.is(b) != c.is(w) {
				t.Errorf("%s: wrapped implements %s = %v, wrapped backend %v", b.Name(), c.name, c.is(w), c.is(b))
			}
		}
	}
}

// TestProbedRunsTakeSamePaths: with the probe on, snapshot-read still
// serves its readers from snapshots, and durable-write still forms the
// same commit groups and syncs its log as often; each run also logs the
// probe's own cost as the throughput difference against an unprobed run of
// the same input.
func TestProbedRunsTakeSamePaths(t *testing.T) {
	for _, name := range []string{"snapshot-read", "durable-write"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs := w.jobs / 4
		off, err := runRound(w, 7, 1, jobs, probeOff, t.TempDir())
		if err != nil {
			t.Fatalf("%s unprobed: %v", name, err)
		}
		on, err := runRound(w, 7, 1, jobs, probeOn, t.TempDir())
		if err != nil {
			t.Fatalf("%s probed: %v", name, err)
		}
		t.Logf("%s: probe cost %.1f%% of throughput (%.0f tx/s unprobed, %.0f probed)",
			name, 100*(off.tps/on.tps-1), off.tps, on.tps)
		switch name {
		case "snapshot-read":
			if on.snapshotReads == 0 || on.snapshotReads != off.snapshotReads {
				t.Errorf("snapshot reads: %d probed, %d unprobed", on.snapshotReads, off.snapshotReads)
			}
		case "durable-write":
			if on.fsyncs == 0 || on.fsyncs*2 < off.fsyncs || off.fsyncs*2 < on.fsyncs {
				t.Errorf("fsyncs: %d probed, %d unprobed", on.fsyncs, off.fsyncs)
			}
			if on.groupSize < off.groupSize/2 || off.groupSize < on.groupSize/2 {
				t.Errorf("commit group size: %.2f probed, %.2f unprobed", on.groupSize, off.groupSize)
			}
		}
	}
}
