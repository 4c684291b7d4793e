package online

import (
	"fmt"
	"sync"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

// ConcurrentStrict2PL is strict two-phase locking on the sharded lock table:
// a natively concurrent scheduler whose Try/Commit/Abort may be driven from
// many goroutines at once without external serialization. Lock state is
// hash-partitioned by variable (lockmgr.ShardedTable), uncontended exclusive
// locks take the table's lock-free fast path, and deadlock detection runs on
// the merged cross-shard waits-for graph.
//
// Two-phase locking composes across partitions — every conflict is decided
// by the single shard owning its variable, and locks are held to commit —
// so no ordering rail is needed: every complete execution is
// conflict-serializable, exactly as with the monolithic table.
type ConcurrentStrict2PL struct {
	policy lockmgr.Policy
	shards int

	sys   *core.System
	table *lockmgr.ShardedTable

	// scratch holds one reusable TryBatch buffer set per shard. The
	// simulator sends same-shard batches and concurrent TryBatch calls
	// must be on different shards (the BatchTrier contract), so indexing by
	// the first id's shard gives every concurrent caller private scratch —
	// the batch path allocates nothing in steady state.
	scratch []batchScratch

	mu      sync.Mutex // guards wounded
	wounded []int
}

// batchScratch is one shard's reusable TryBatch buffers.
type batchScratch struct {
	reqs    []lockmgr.BatchReq
	results []lockmgr.Result
	out     []Decision
}

// NewConcurrentStrict2PL returns a sharded strict 2PL scheduler with the
// given deadlock policy and shard count.
func NewConcurrentStrict2PL(policy lockmgr.Policy, shards int) *ConcurrentStrict2PL {
	if shards < 1 {
		shards = 1
	}
	return &ConcurrentStrict2PL{policy: policy, shards: shards}
}

// Name implements Scheduler.
func (s *ConcurrentStrict2PL) Name() string {
	return fmt.Sprintf("2pl-sharded(%d)/%s", s.shards, s.policy)
}

// Begin implements Scheduler.
func (s *ConcurrentStrict2PL) Begin(sys *core.System) {
	s.sys = sys
	s.table = lockmgr.NewShardedTable(s.policy, s.shards)
	// Reserve flat per-transaction table state and register everything up
	// front: the steady-state Acquire/ReleaseAll cycle then never touches
	// a sync.Map allocation or the registration slow path.
	s.table.Reserve(sys.NumTxs())
	s.scratch = make([]batchScratch, s.shards)
	s.mu.Lock()
	s.wounded = nil
	s.mu.Unlock()
	for tx := 0; tx < sys.NumTxs(); tx++ {
		s.table.Register(lockmgr.TxID(tx))
	}
}

// Try implements Scheduler. Safe for concurrent use across transactions.
func (s *ConcurrentStrict2PL) Try(id core.StepID) Decision {
	step := s.sys.Step(id)
	need := lockMode(step.Kind)
	if held, ok := s.table.Holds(lockmgr.TxID(id.Tx), step.Var); ok {
		if held == lockmgr.Exclusive || need == lockmgr.Shared {
			return Grant
		}
	}
	r := s.table.Acquire(lockmgr.TxID(id.Tx), step.Var, need)
	if len(r.Wounded) > 0 {
		s.mu.Lock()
		for _, w := range r.Wounded {
			s.wounded = append(s.wounded, int(w))
		}
		s.mu.Unlock()
	}
	switch r.Status {
	case lockmgr.Granted:
		return Grant
	case lockmgr.AbortSelf:
		return AbortTx
	default:
		return Delay
	}
}

// TryBatch implements BatchTrier natively: the batch's lock requests go
// through lockmgr.ShardedTable.AcquireBatchInto, which takes each shard
// mutex at most once for the whole batch (the simulator sends same-shard
// batches, so normally exactly once). Reentrant holds are
// resolved by the table's fast-slot check and by Table.Acquire itself, so
// the result is decision-for-decision equivalent to calling Try on each id
// in order. The returned slice is the scratch of the first id's shard: it
// stays valid until that shard's next TryBatch, which is exactly the
// simulator's usage (it consumes the decisions before releasing the
// shard's decision mutex), and concurrent batches on other shards use
// their own scratch.
func (s *ConcurrentStrict2PL) TryBatch(ids []core.StepID) []Decision {
	sc := &s.scratch[s.ShardOf(s.sys.Step(ids[0]).Var)]
	sc.reqs = sc.reqs[:0]
	for _, id := range ids {
		step := s.sys.Step(id)
		sc.reqs = append(sc.reqs, lockmgr.BatchReq{Tx: lockmgr.TxID(id.Tx), Var: step.Var, Mode: lockMode(step.Kind)})
	}
	sc.results = s.table.AcquireBatchInto(sc.results, sc.reqs)
	sc.out = sc.out[:0]
	var wounded []int
	for _, r := range sc.results {
		for _, w := range r.Wounded {
			wounded = append(wounded, int(w))
		}
		switch r.Status {
		case lockmgr.Granted:
			sc.out = append(sc.out, Grant)
		case lockmgr.AbortSelf:
			sc.out = append(sc.out, AbortTx)
		default:
			sc.out = append(sc.out, Delay)
		}
	}
	if len(wounded) > 0 {
		s.mu.Lock()
		s.wounded = append(s.wounded, wounded...)
		s.mu.Unlock()
	}
	return sc.out
}

// Commit implements Scheduler.
func (s *ConcurrentStrict2PL) Commit(tx int) {
	s.table.ReleaseAll(lockmgr.TxID(tx))
	s.table.Forget(lockmgr.TxID(tx))
}

// Abort implements Scheduler.
func (s *ConcurrentStrict2PL) Abort(tx int) {
	s.table.ReleaseAll(lockmgr.TxID(tx))
	s.table.Forget(lockmgr.TxID(tx))
}

// Victim implements Scheduler: break a cycle of the merged cross-shard
// waits-for graph by aborting its youngest member.
func (s *ConcurrentStrict2PL) Victim(stuck []int) (int, bool) {
	if cycle, found := s.table.DetectDeadlock(); found {
		return int(s.table.ChooseVictim(cycle)), true
	}
	return 0, false
}

// Wounded implements Scheduler.
func (s *ConcurrentStrict2PL) Wounded() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.wounded
	s.wounded = nil
	return w
}

// WaitsForTxs exposes the merged waits-for graph (WaitsForProvider).
func (s *ConcurrentStrict2PL) WaitsForTxs() map[int][]int {
	out := map[int][]int{}
	for w, blockers := range s.table.WaitsFor() {
		bs := make([]int, 0, len(blockers))
		for _, b := range blockers {
			bs = append(bs, int(b))
		}
		out[int(w)] = bs
	}
	return out
}

// NumShards implements ConcurrentScheduler.
func (s *ConcurrentStrict2PL) NumShards() int { return s.shards }

// ShardOf implements ConcurrentScheduler.
func (s *ConcurrentStrict2PL) ShardOf(v core.Var) int { return shardOfVar(v, s.shards) }
