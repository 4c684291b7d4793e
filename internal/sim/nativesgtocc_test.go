package sim

// Coverage for the natively concurrent SGT and OCC schedulers driven by
// the real dispatch runtime: disjoint-workload state==replay self-checks
// of the lock-free paths, and contended CSR self-checks of the striped
// graph and the epoch-based validation. CI runs this file under
// -race -count=5 in the concurrency stress job.

import (
	"testing"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// TestConcurrentSGTDisjointStateMatchesReplay: native SGT over the sharded
// dispatch loops with real storage on the conflict-free multi-shard
// workload. Every grant takes the zero-conflict lock-free path, every
// commit retires an edgeless singleton; the committed backend state must
// equal the committed replay.
func TestConcurrentSGTDisjointStateMatchesReplay(t *testing.T) {
	const jobs = 24
	for _, shards := range []int{1, 4} {
		inst := Instantiate(workload.Disjoint(jobs, 3), jobs)
		be := storage.NewKV(storage.Config{Shards: shards, ValueSize: 128})
		m, err := Run(Config{System: inst, Sched: online.NewConcurrentSGTAborting(shards),
			Backend: be, Users: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != jobs {
			t.Fatalf("shards=%d: committed %d of %d", shards, m.Committed, jobs)
		}
		replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !be.State().Equal(replay) {
			t.Fatalf("shards=%d: backend state diverged from committed replay", shards)
		}
	}
}

// TestConcurrentSGTContendedSerializable: native SGT under real conflicts
// (hotspot workload, many users), both cycle modes. Everything must
// commit — delay mode leans on the parked-request kicks and the deadlock
// breaker's Victim call, abort mode on restarts — and the committed
// schedule must be conflict-serializable: the concurrent edge set equals
// the sequential SGT's, so acyclicity of the striped graph is exactly CSR
// of the committed log, exercised concurrently.
func TestConcurrentSGTContendedSerializable(t *testing.T) {
	const jobs = 24
	template := workload.Random(workload.RandomConfig{
		NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7)
	for _, abort := range []bool{false, true} {
		var sched online.Scheduler = online.NewConcurrentSGT(4)
		if abort {
			sched = online.NewConcurrentSGTAborting(4)
		}
		inst := Instantiate(template, jobs)
		m, err := Run(Config{System: inst, Sched: sched, Users: 8, Seed: 11, MaxRestarts: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != jobs {
			t.Fatalf("abort=%v: committed %d of %d", abort, m.Committed, jobs)
		}
		csr, _, err := conflict.Serializable(inst, m.Output)
		if err != nil {
			t.Fatal(err)
		}
		if !csr {
			t.Fatalf("abort=%v: non-serializable committed schedule", abort)
		}
	}
}

// TestConcurrentOCCDisjointStateMatchesReplay: native OCC over the sharded
// dispatch loops with real storage on the conflict-free multi-shard
// workload — the all-lock-free regime the epoch validation is built for.
func TestConcurrentOCCDisjointStateMatchesReplay(t *testing.T) {
	const jobs = 24
	for _, shards := range []int{1, 4} {
		inst := Instantiate(workload.Disjoint(jobs, 3), jobs)
		be := storage.NewKV(storage.Config{Shards: shards, ValueSize: 128})
		m, err := Run(Config{System: inst, Sched: online.NewConcurrentOCC(shards),
			Backend: be, Users: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != jobs {
			t.Fatalf("shards=%d: committed %d of %d", shards, m.Committed, jobs)
		}
		replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !be.State().Equal(replay) {
			t.Fatalf("shards=%d: backend state diverged from committed replay", shards)
		}
	}
}

// TestConcurrentOCCContendedSerializable: native OCC under real conflicts
// (hotspot workload, many users). Validation aborts restart until
// everything commits, and the committed schedule must be
// conflict-serializable — committed transactions are serialized by their
// validation epochs, exercised with genuinely concurrent validators.
func TestConcurrentOCCContendedSerializable(t *testing.T) {
	const jobs = 24
	template := workload.Random(workload.RandomConfig{
		NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7)
	inst := Instantiate(template, jobs)
	m, err := Run(Config{System: inst, Sched: online.NewConcurrentOCC(4),
		Users: 8, Seed: 11, MaxRestarts: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != jobs {
		t.Fatalf("committed %d of %d", m.Committed, jobs)
	}
	csr, _, err := conflict.Serializable(inst, m.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !csr {
		t.Fatal("non-serializable committed schedule under concurrent backward validation")
	}
}

// TestConcurrentOCCSeedSweepSerializable widens the contended CSR check
// from one configuration to a seed sweep: the hotspot system of
// TestConcurrentOCCContendedSerializable under varying template and run
// seeds, for native OCC and for the other natively concurrent certifiers
// (SGT aborting and delaying, TO). Any committed schedule that is not
// conflict-serializable fails the test. The race detector slows every run
// several-fold, so race builds sweep fewer seeds.
func TestConcurrentOCCSeedSweepSerializable(t *testing.T) {
	const jobs = 24
	seeds := int64(150)
	if raceEnabled {
		seeds = 20
	}
	for _, sc := range []struct {
		name string
		mk   func() online.Scheduler
	}{
		{"cocc", func() online.Scheduler { return online.NewConcurrentOCC(4) }},
		{"csgt", func() online.Scheduler { return online.NewConcurrentSGTAborting(4) }},
		{"csgt-delay", func() online.Scheduler { return online.NewConcurrentSGT(4) }},
		{"cto", func() online.Scheduler { return online.NewConcurrentTO(4) }},
	} {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				template := workload.Random(workload.RandomConfig{
					NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7+seed%5)
				inst := Instantiate(template, jobs)
				m, err := Run(Config{System: inst, Sched: sc.mk(), Users: 8, Seed: seed, MaxRestarts: 10000})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if m.Committed != jobs {
					t.Fatalf("seed %d: committed %d of %d", seed, m.Committed, jobs)
				}
				csr, _, err := conflict.Serializable(inst, m.Output)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !csr {
					t.Fatalf("seed %d: non-serializable committed schedule %v", seed, m.Output)
				}
			}
		})
	}
}
