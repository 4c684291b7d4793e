package sim

import (
	"fmt"
	"sync"
	"testing"

	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/workload"
)

// grantRecorder wraps a natively concurrent scheduler and records, under
// its own lock, the order in which Try and TryBatch return Grant, tagged
// with the requester's attempt (counted like the runtime's: 1, plus one
// per Abort). It keeps the ConcurrentScheduler and BatchTrier interfaces,
// so the runtime drives it exactly as it drives the wrapped scheduler.
type grantRecorder struct {
	online.ConcurrentScheduler
	mu      sync.Mutex
	attempt map[int]int
	grants  []online.Event
}

func newGrantRecorder(cs online.ConcurrentScheduler) *grantRecorder {
	return &grantRecorder{ConcurrentScheduler: cs, attempt: map[int]int{}}
}

func (g *grantRecorder) recordLocked(id core.StepID, d online.Decision) {
	if d == online.Grant {
		g.grants = append(g.grants, online.Event{Step: id, Attempt: g.attempt[id.Tx] + 1})
	}
}

func (g *grantRecorder) Try(id core.StepID) online.Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := g.ConcurrentScheduler.Try(id)
	g.recordLocked(id, d)
	return d
}

func (g *grantRecorder) TryBatch(ids []core.StepID) []online.Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	ds := online.TryBatch(g.ConcurrentScheduler, ids)
	for i, id := range ids {
		g.recordLocked(id, ds[i])
	}
	return ds
}

func (g *grantRecorder) Abort(tx int) {
	g.mu.Lock()
	g.attempt[tx]++
	g.mu.Unlock()
	g.ConcurrentScheduler.Abort(tx)
}

// TestDecisionOrderMatchesOutput pins the invariant that a decision and its
// granted-step log append are atomic per shard: with users deciding their
// own requests (more users than shards, so users collide on a shard), the
// steps of every variable appear in Metrics.Output in exactly the order in
// which the scheduler granted them. The schedulers are non-strict, so that
// order is the only thing that makes the committed state a replay of
// Output; csgt also delays, which drives the parked-retry path (batched
// when Batch > 1).
func TestDecisionOrderMatchesOutput(t *testing.T) {
	const jobs = 160
	template := workload.Random(workload.RandomConfig{NumTxs: 8, MinSteps: 2, MaxSteps: 4, NumVars: 6, Hotspot: 1}, 7)
	inst := Instantiate(template, jobs)
	for _, mk := range []func() online.ConcurrentScheduler{
		func() online.ConcurrentScheduler { return online.NewConcurrentTO(2) },
		func() online.ConcurrentScheduler { return online.NewConcurrentSGT(2) },
	} {
		for _, batch := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				rec := newGrantRecorder(mk())
				t.Run(fmt.Sprintf("%s/batch%d/seed%d", rec.Name(), batch, seed), func(t *testing.T) {
					m, err := Run(Config{System: inst, Sched: rec, Users: 8, Seed: seed, Batch: batch, MaxRestarts: 100000})
					if err != nil {
						t.Fatal(err)
					}
					if m.Committed != jobs {
						t.Fatalf("committed %d of %d", m.Committed, jobs)
					}
					varOf := func(id core.StepID) core.Var { return inst.Txs[id.Tx].Steps[id.Idx].Var }
					want := map[core.Var][]core.StepID{}
					for _, e := range rec.grants {
						if e.Attempt == rec.attempt[e.Step.Tx]+1 { // the committed, final attempt
							want[varOf(e.Step)] = append(want[varOf(e.Step)], e.Step)
						}
					}
					got := map[core.Var][]core.StepID{}
					for _, id := range m.Output {
						got[varOf(id)] = append(got[varOf(id)], id)
					}
					if len(got) != len(want) {
						t.Fatalf("output touches %d variables, grants %d", len(got), len(want))
					}
					for v, ids := range want {
						if len(got[v]) != len(ids) {
							t.Fatalf("variable %s: %d steps in output, %d granted", v, len(got[v]), len(ids))
						}
						for i := range ids {
							if got[v][i] != ids[i] {
								t.Fatalf("variable %s, position %d: output has %v, the scheduler granted %v", v, i, got[v][i], ids[i])
							}
						}
					}
				})
			}
		}
	}
}
