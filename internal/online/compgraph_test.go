package online

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

// TestShardedRetiresEveryIncarnation drives Sharded from one goroutine per
// transaction over a small hot variable set, aborting and retrying on any
// non-grant. Once every transaction has committed, the ordering rail must
// have retired every incarnation: no shard's grant log keeps an entry and
// no stripe keeps a subgraph. A grant-log read races commit/abort's log
// purge, so an insert that edges from an incarnation retired a moment ago
// (aborted, or committed and pruned) would leave that edge behind forever —
// its source is never committed again, so neither it nor anything it
// reaches is ever pruned.
func TestShardedRetiresEveryIncarnation(t *testing.T) {
	const (
		txs, steps, vars = 64, 3, 12
		rounds           = 200
	)
	factories := []struct {
		name    string
		factory func() Scheduler
	}{
		{"to/basic", func() Scheduler { return NewTO() }},
		{"strict-2pl/woundwait", func() Scheduler { return NewStrict2PL(lockmgr.WoundWait) }},
	}
	for _, tc := range factories {
		rng := rand.New(rand.NewSource(17))
		for round := 0; round < rounds; round++ {
			sys := &core.System{Name: "retire"}
			for i := 0; i < txs; i++ {
				var tx core.Transaction
				for _, v := range rng.Perm(vars)[:steps] {
					tx.Steps = append(tx.Steps, core.Step{Var: core.Var(fmt.Sprintf("v%d", v)), Kind: core.Update})
				}
				sys.Txs = append(sys.Txs, tx)
			}
			sys.Normalize()
			sched := NewSharded(4, tc.factory)
			sched.Begin(sys)
			var wg sync.WaitGroup
			for tx := 0; tx < txs; tx++ {
				wg.Add(1)
				go func(tx int) {
					defer wg.Done()
					for idx := 0; idx < steps; {
						if sched.Try(core.StepID{Tx: tx, Idx: idx}) == Grant {
							idx++
							continue
						}
						sched.Abort(tx)
						idx = 0
						runtime.Gosched()
					}
					sched.Commit(tx)
				}(tx)
			}
			wg.Wait()
			for i, sh := range sched.shards {
				if len(sh.log) != 0 {
					t.Fatalf("%s round %d: shard %d keeps %d grant-log entries after every commit: %v",
						tc.name, round, i, len(sh.log), sh.log)
				}
			}
			for i := range sched.rail.stripes {
				if n := len(sched.rail.stripes[i].subs); n != 0 {
					t.Fatalf("%s round %d: stripe %d keeps %d subgraphs after every commit", tc.name, round, i, n)
				}
			}
		}
	}
}
