package online

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

// ConcurrentScheduler is a scheduler safe for concurrent use from multiple
// dispatch goroutines. It extends the single-threaded Scheduler contract
// (so every ConcurrentScheduler also works under the replay harness) with
// the shard partition the runtime routes requests by: steps on variables of
// different shards may be offered concurrently; calls on behalf of one
// transaction must still not overlap with each other.
type ConcurrentScheduler interface {
	Scheduler
	// NumShards returns the number of independent shards.
	NumShards() int
	// ShardOf returns the shard owning variable v. The simulator decides
	// each step request under the decision mutex of ShardOf(step.Var), so
	// Try and TryBatch calls for the variables of one shard never overlap.
	ShardOf(v core.Var) int
}

// WaitsForProvider is implemented by schedulers that can expose their
// waits-for graph at transaction granularity; the Sharded combinator merges
// per-shard graphs through it to detect cross-shard deadlock cycles that no
// single shard can see.
type WaitsForProvider interface {
	WaitsForTxs() map[int][]int
}

// shardOfVar hash-partitions a variable across n shards. It is
// lockmgr.ShardOfVar, the single partition function, so lock state and
// dispatch always agree on ownership.
//
//optcc:hotpath
func shardOfVar(v core.Var, n int) int { return lockmgr.ShardOfVar(v, n) }

// Mutexed wraps a single-threaded Scheduler behind one mutex: the
// centralized baseline of the ConcurrentScheduler contract (one shard, all
// requests serialized). It realizes exactly the inner scheduler's fixpoint.
// sim.Run wraps every plain Scheduler in it, so this is also how the
// paper's single Section 6 scheduler runs.
type Mutexed struct {
	mu     sync.Mutex
	inner  Scheduler
	outBuf []Decision // TryBatch scratch, reused under mu
}

// NewMutexed returns the inner scheduler behind a single global mutex.
func NewMutexed(inner Scheduler) *Mutexed { return &Mutexed{inner: inner} }

// Name implements Scheduler.
func (m *Mutexed) Name() string { return "mutexed/" + m.inner.Name() }

// Begin implements Scheduler.
func (m *Mutexed) Begin(sys *core.System) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inner.Begin(sys)
}

// Try implements Scheduler.
func (m *Mutexed) Try(id core.StepID) Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Try(id)
}

// TryBatch implements BatchTrier: the whole batch is decided under one
// mutex acquisition instead of one per request. The returned slice is the
// wrapper's reusable scratch — valid until the next TryBatch, which is the
// simulator's usage on this one-shard scheduler (its one decision mutex
// is held until the decisions are consumed).
func (m *Mutexed) TryBatch(ids []core.StepID) []Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.outBuf[:0]
	for _, id := range ids {
		out = append(out, m.inner.Try(id))
	}
	m.outBuf = out
	return out
}

// Commit implements Scheduler.
func (m *Mutexed) Commit(tx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inner.Commit(tx)
}

// Abort implements Scheduler.
func (m *Mutexed) Abort(tx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inner.Abort(tx)
}

// Victim implements Scheduler.
func (m *Mutexed) Victim(stuck []int) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Victim(stuck)
}

// Wounded implements Scheduler.
func (m *Mutexed) Wounded() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Wounded()
}

// NumShards implements ConcurrentScheduler.
func (m *Mutexed) NumShards() int { return 1 }

// ShardOf implements ConcurrentScheduler.
func (m *Mutexed) ShardOf(core.Var) int { return 0 }

// railNode identifies a transaction incarnation in the cross-shard rail.
type railNode struct {
	tx, epoch int
}

// railRec is one granted step recorded in a shard's log for conflict-edge
// computation (conflicts are always intra-shard: a conflict needs a shared
// variable, and every variable belongs to exactly one shard).
type railRec struct {
	n    railNode
	step core.Step
}

// shardSlot is one shard of a Sharded scheduler: a shard-local
// single-threaded scheduler plus the grant log feeding the rail. srcBuf
// and addBuf are reusable scratch for the rail conversation (conflict
// sources and provisionally added edges), valid under mu — the per-step
// rail path allocates nothing in steady state.
type shardSlot struct {
	mu     sync.Mutex
	inner  Scheduler
	log    []railRec
	srcBuf []railNode
	addBuf []railNode
	// outBuf is the TryBatch decision scratch of batches whose first step
	// lands on this shard (concurrent batches start on distinct shards, so
	// the buffer has one writer at a time).
	outBuf []Decision
}

// Sharded partitions variables across n shard-local copies of a
// single-threaded scheduler. Requests touch only the shard owning their
// variable, so independent conflicts are decided in parallel.
//
// Cross-shard ordering rail: per-shard decisions alone cannot rule out a
// conflict cycle threading through several shards (each edge lives inside
// one shard, but multi-shard transactions connect them). When the system
// spans more than one shard, the rail keeps a transaction-level conflict
// graph — the striped component graph ConcurrentSGT also runs on
// (compGraph) — and a grant whose new edges would close a cycle is delayed
// before the shard scheduler sees it. Edges are inserted atomically with
// the cycle check and withdrawn if the shard scheduler rejects the step, so
// the set of actually granted steps always stays acyclic and every
// complete run is conflict-serializable. Inserts touching disjoint
// components never contend, and a conflict-free insert takes no graph lock
// at all. Cross-shard deadlocks are broken via the merged waits-for view
// (WaitsForProvider) in Victim.
//
// On a single-shard system the rail is inert and every call reduces to a
// locked delegation, so each wrapper realizes exactly the fixpoint set of
// its single-threaded original — the replay-equivalence property the tests
// check.
type Sharded struct {
	n       int
	factory func() Scheduler
	name    string

	sys      *core.System
	shards   []*shardSlot
	txShards [][]int

	railOn bool
	rail   *compGraph // striped as widely as the shard count
	// railBufs pools the retired-node buffers of commit/abort rail calls
	// (concurrent commit lanes each borrow one), so retiring a node — the
	// per-transaction rail cost — allocates nothing in steady state.
	railBufs sync.Pool
}

// NewSharded returns a combinator running one factory-built scheduler per
// shard (minimum 1) with the cross-shard ordering rail striped as widely as
// the shard count. The display name is computed eagerly from one probe
// instance: lazy computation in Name would race with concurrent dispatch
// when a run is reported while in flight.
func NewSharded(shards int, factory func() Scheduler) *Sharded {
	if shards < 1 {
		shards = 1
	}
	return &Sharded{
		n:       shards,
		factory: factory,
		name:    fmt.Sprintf("sharded(%d)/%s", shards, factory().Name()),
	}
}

// Name implements Scheduler. Safe for concurrent use: the name is fixed at
// construction and never written afterwards.
func (s *Sharded) Name() string { return s.name }

// NumShards implements ConcurrentScheduler.
func (s *Sharded) NumShards() int { return s.n }

// ShardOf implements ConcurrentScheduler.
func (s *Sharded) ShardOf(v core.Var) int { return shardOfVar(v, s.n) }

// Begin implements Scheduler.
func (s *Sharded) Begin(sys *core.System) {
	s.sys = sys
	s.shards = make([]*shardSlot, s.n)
	for i := range s.shards {
		s.shards[i] = &shardSlot{inner: s.factory()}
		s.shards[i].inner.Begin(sys)
	}
	used := map[int]bool{}
	for _, v := range sys.Vars() {
		used[s.ShardOf(v)] = true
	}
	s.railOn = len(used) > 1
	s.txShards = make([][]int, sys.NumTxs())
	for tx := range s.txShards {
		seen := map[int]bool{}
		for _, st := range sys.Txs[tx].Steps {
			seen[s.ShardOf(st.Var)] = true
		}
		for sh := range seen {
			s.txShards[tx] = append(s.txShards[tx], sh)
		}
		sort.Ints(s.txShards[tx])
	}
	s.rail = newCompGraph(s.n, sys.NumTxs())
}

// Try implements Scheduler: route the step to the shard owning its
// variable; on multi-shard systems, clear the grant with the rail first.
func (s *Sharded) Try(id core.StepID) Decision {
	sh := s.shards[s.ShardOf(s.sys.Step(id).Var)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.tryLocked(sh, id)
}

// TryBatch implements BatchTrier. Requests are decided strictly in batch
// order — rail edges are global, so reordering could change which grant
// closes a cycle — but one shard-mutex acquisition is shared across every
// consecutive run of same-shard requests (the rail is still consulted per
// step: edge insertion must stay atomic with its cycle check). The dispatch
// loops send same-shard batches, so the common case is a single mutex
// acquisition for the whole batch. The returned slice is the first shard's
// reusable decision scratch — valid until that shard's next TryBatch, and
// private to each concurrent caller because concurrent batches must be on
// different shards (the BatchTrier contract).
func (s *Sharded) TryBatch(ids []core.StepID) []Decision {
	first := s.shards[s.ShardOf(s.sys.Step(ids[0]).Var)]
	out := first.outBuf[:0]
	held := -1
	for _, id := range ids {
		si := s.ShardOf(s.sys.Step(id).Var)
		if si != held {
			if held >= 0 {
				s.shards[held].mu.Unlock()
			}
			s.shards[si].mu.Lock()
			held = si
		}
		out = append(out, s.tryLocked(s.shards[si], id))
	}
	if held >= 0 {
		s.shards[held].mu.Unlock()
	}
	first.outBuf = out
	return out
}

// tryLocked decides one step against its shard scheduler, clearing the
// grant with the rail first on multi-shard systems. Caller holds sh.mu,
// which also makes the slot's scratch buffers (conflict sources, added
// edges) safe to reuse — the whole rail conversation is allocation-free in
// steady state.
func (s *Sharded) tryLocked(sh *shardSlot, id core.StepID) Decision {
	step := s.sys.Step(id)
	if !s.railOn {
		return sh.inner.Try(id)
	}
	me := s.rail.node(id.Tx)
	sh.srcBuf = sh.srcBuf[:0]
	for _, rec := range sh.log {
		if rec.n == me || slices.Contains(sh.srcBuf, rec.n) {
			continue
		}
		if conflict.Conflicts(rec.step, step) {
			sh.srcBuf = append(sh.srcBuf, rec.n)
		}
	}
	added, ok := s.rail.insert(me, sh.srcBuf, sh.addBuf)
	sh.addBuf = added
	if !ok {
		return Delay
	}
	d := sh.inner.Try(id)
	if d == Grant {
		sh.log = append(sh.log, railRec{n: me, step: step})
		return Grant
	}
	s.rail.withdraw(me, added)
	return d
}

// Commit implements Scheduler: notify every shard the transaction touched,
// then retire its rail node (through a pooled retired-node buffer, so the
// per-commit rail conversation allocates nothing).
func (s *Sharded) Commit(tx int) {
	for _, si := range s.txShards[tx] {
		sh := s.shards[si]
		sh.mu.Lock()
		sh.inner.Commit(tx)
		sh.mu.Unlock()
	}
	if !s.railOn {
		return
	}
	bp := s.railBuf()
	*bp = s.rail.commitTx(tx, (*bp)[:0])
	s.purgeLogs(*bp)
	s.railBufs.Put(bp)
}

// Abort implements Scheduler: notify touched shards, drop the incarnation's
// rail node and start a fresh epoch.
func (s *Sharded) Abort(tx int) {
	for _, si := range s.txShards[tx] {
		sh := s.shards[si]
		sh.mu.Lock()
		sh.inner.Abort(tx)
		sh.mu.Unlock()
	}
	if !s.railOn {
		return
	}
	bp := s.railBuf()
	*bp = s.rail.abortTx(tx, (*bp)[:0])
	s.purgeLogs(*bp)
	s.railBufs.Put(bp)
}

// railBuf borrows a retired-node buffer from the pool.
func (s *Sharded) railBuf() *[]railNode {
	if b, ok := s.railBufs.Get().(*[]railNode); ok {
		return b
	}
	return new([]railNode)
}

// purgeLogs drops the retired nodes' entries from every shard grant log.
// retired is a handful of nodes (an incarnation plus its pruned component
// members), so a linear membership scan beats building a set. A concurrent
// tryLocked may still read an entry before it is purged; the graph's
// liveness check drops such a source.
func (s *Sharded) purgeLogs(retired []railNode) {
	if len(retired) == 0 {
		return
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		kept := sh.log[:0]
		for _, rec := range sh.log {
			if !slices.Contains(retired, rec.n) {
				kept = append(kept, rec)
			}
		}
		sh.log = kept
		sh.mu.Unlock()
	}
}

// Victim implements Scheduler: first look for a cycle in the merged global
// waits-for graph (cross-shard deadlocks), then fall back to the shard
// schedulers' own heuristics.
func (s *Sharded) Victim(stuck []int) (int, bool) {
	merged := map[int][]int{}
	provided := false
	for _, sh := range s.shards {
		sh.mu.Lock()
		if p, ok := sh.inner.(WaitsForProvider); ok {
			provided = true
			for w, bs := range p.WaitsForTxs() {
				merged[w] = append(merged[w], bs...)
			}
		}
		sh.mu.Unlock()
	}
	if provided {
		g := make(map[lockmgr.TxID][]lockmgr.TxID, len(merged))
		for w, bs := range merged {
			out := make([]lockmgr.TxID, len(bs))
			for i, b := range bs {
				out[i] = lockmgr.TxID(b)
			}
			g[lockmgr.TxID(w)] = out
		}
		if txCycle, ok := lockmgr.FindCycle(g); ok {
			cycle := make([]int, len(txCycle))
			for i, tx := range txCycle {
				cycle[i] = int(tx)
			}
			// Highest index = youngest registration on every current shard
			// scheduler (Begin registers 0..n−1 in order).
			victim := cycle[0]
			for _, tx := range cycle[1:] {
				if tx > victim {
					victim = tx
				}
			}
			return victim, true
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		tx, ok := sh.inner.Victim(stuck)
		sh.mu.Unlock()
		if ok {
			return tx, true
		}
	}
	// No shard has a view of the blockage (e.g. shard-local serial, which
	// does not track waiters). Abort the youngest stuck transaction: the
	// harness retries survivors in ascending order, so the freed shards go
	// to the transactions it drains first — aborting the oldest instead can
	// livelock with the victim re-occupying its shard on every round.
	if len(stuck) > 0 {
		victim := stuck[0]
		for _, tx := range stuck[1:] {
			if tx > victim {
				victim = tx
			}
		}
		return victim, true
	}
	return 0, false
}

// Wounded implements Scheduler: collect and clear every shard's wounds.
// The common call finds none (the simulator polls after every decision),
// so the dedup set is allocated lazily — a wound-free poll allocates
// nothing.
func (s *Sharded) Wounded() []int {
	var out []int
	var seen map[int]bool
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, w := range sh.inner.Wounded() {
			if seen == nil {
				seen = map[int]bool{}
			}
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
