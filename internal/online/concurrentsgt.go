package online

import (
	"fmt"

	"optcc/internal/conflict"
	"optcc/internal/core"
)

// containsNode is slices.Contains for railNode lists without the generic
// instantiation (the hotpath analyzer models type-parameter arguments as
// interface conversions).
//
//optcc:hotpath
func containsNode(list []railNode, n railNode) bool {
	for _, x := range list {
		if x == n {
			return true
		}
	}
	return false
}

// ConcurrentSGT is natively concurrent serialization graph testing: the
// SGT scheduler rebuilt for the sharded runtime on a finely striped graph.
// Where Sharded(SGT) runs one single-threaded SGT per shard behind a shard
// mutex plus the cross-shard ordering rail, ConcurrentSGT keeps one graph
// for the whole run, partitioned by connectivity instead of by variable:
//
//   - Conflicts are discovered through per-variable marks (internal/online
//     marks.go): each variable's entry lists the live incarnations that
//     read and wrote it. The ConcurrentScheduler contract serializes every
//     step of a variable on its shard's decision mutex, so the lists need
//     no synchronization of their own — the decider appends on grant and
//     compacts dead incarnations on the variable's next visit. The lists hold every
//     live reader/writer, not just the last ones: last-marks would lose
//     transitive edges when an intermediate incarnation aborts and admit
//     non-serializable schedules.
//   - Edges and cycle checks live in compGraph, the striped union-find
//     component graph (compgraph.go). Grants touching disjoint components
//     proceed in parallel on different stripes; a zero-conflict grant
//     (empty source set) takes no lock at all; only a same-component
//     source forces the exact DFS, inside that component's single stripe.
//   - Commit and abort prune component-locally, retiring exactly the
//     nodes the sequential SGT's global prune would (eligibility can only
//     change through an event in the node's own component, and each such
//     event prunes that component to fixpoint).
//
// Cycle handling matches the sequential pair: delay-on-cycle preserves the
// CSR fixpoint (NewConcurrentSGT), abort-on-cycle guarantees progress
// (NewConcurrentSGTAborting). Under single-goroutine driving its decisions
// match SGT verbatim in both modes — see
// TestConcurrentSGTDecisionEquivalence.
type ConcurrentSGT struct {
	base
	// AbortOnCycle aborts the requester when a grant would close a cycle
	// instead of delaying it, matching SGTAborting.
	AbortOnCycle bool
	shards       int

	sys   *core.System
	marks *sgtMarks
	graph *compGraph
}

// NewConcurrentSGT returns a natively concurrent SGT scheduler that delays
// on cycles, over the given shard count (minimum 1).
func NewConcurrentSGT(shards int) *ConcurrentSGT {
	if shards < 1 {
		shards = 1
	}
	return &ConcurrentSGT{shards: shards}
}

// NewConcurrentSGTAborting returns a natively concurrent SGT scheduler
// that aborts the requester on cycles.
func NewConcurrentSGTAborting(shards int) *ConcurrentSGT {
	s := NewConcurrentSGT(shards)
	s.AbortOnCycle = true
	return s
}

// Name implements Scheduler.
func (s *ConcurrentSGT) Name() string {
	if s.AbortOnCycle {
		return fmt.Sprintf("csgt(%d)/abort", s.shards)
	}
	return fmt.Sprintf("csgt(%d)/delay", s.shards)
}

// Begin implements Scheduler. Re-beginning over the same system (the
// replay harness enumerating histories does this per history) reuses the
// marks table and graph via reset instead of rebuilding their maps.
func (s *ConcurrentSGT) Begin(sys *core.System) {
	if sys == s.sys && s.marks != nil && len(s.graph.state) == sys.NumTxs() {
		s.marks.reset()
		s.graph.reset()
		return
	}
	s.sys = sys
	s.marks = newSGTMarks(sys.Vars(), s.shards)
	s.graph = newCompGraph(s.shards, sys.NumTxs())
}

// collect compacts dead incarnations out of a mark list in place and
// appends the live ones (except me) to src, deduplicating — an
// incarnation that both read and wrote the variable is one source. It
// runs on the variable's dispatch goroutine, the only toucher of the
// list.
//
//optcc:hotpath
func (s *ConcurrentSGT) collect(list []railNode, me railNode, src []railNode) ([]railNode, []railNode) {
	kept := list[:0]
	for _, n := range list {
		if !s.graph.alive(n) {
			continue
		}
		//cclint:ignore hotpath in-place compaction: kept aliases list's backing array, never grows
		kept = append(kept, n)
		if n == me || containsNode(src, n) {
			continue
		}
		//cclint:ignore hotpath amortized append into the entry's reusable source scratch
		src = append(src, n)
	}
	return kept, src
}

// record adds me to a mark list if not already present. Runs on the
// variable's dispatch goroutine.
//
//optcc:hotpath
func (s *ConcurrentSGT) record(list []railNode, me railNode) []railNode {
	if containsNode(list, me) {
		return list
	}
	//cclint:ignore hotpath amortized append into the entry's reusable mark list
	return append(list, me)
}

// Try implements Scheduler. The zero-conflict path — no live conflicting
// marks on the step's variable — is lock-free: marks lookup, liveness
// loads, mark record. Conflicting grants go through the striped graph's
// insert, locking only the stripes owning the touched components.
//
//optcc:hotpath
func (s *ConcurrentSGT) Try(id core.StepID) Decision {
	me := s.graph.node(id.Tx)
	step := s.sys.Step(id)
	e := s.marks.entry(step.Var)
	src := e.srcBuf[:0]
	// A write conflicts with every live reader and writer; a pure read
	// only with writers (conflict.Conflicts on a shared variable).
	e.writers, src = s.collect(e.writers, me, src)
	if conflict.Writes(step.Kind) {
		e.readers, src = s.collect(e.readers, me, src)
	}
	e.srcBuf = src
	//cclint:ignore hotpath contended path: the striped-graph insert takes component stripe locks
	added, ok := s.graph.insert(me, src, e.addBuf)
	e.addBuf = added
	if !ok {
		if s.AbortOnCycle {
			return AbortTx
		}
		return Delay
	}
	if conflict.Writes(step.Kind) {
		e.writers = s.record(e.writers, me)
	} else {
		e.readers = s.record(e.readers, me)
	}
	return Grant
}

// TryBatch implements BatchTrier. Decisions are per-step graph operations
// already; the native batch path simply decides in order without the
// adapter's indirection.
func (s *ConcurrentSGT) TryBatch(ids []core.StepID) []Decision {
	out := make([]Decision, len(ids))
	for i, id := range ids {
		out[i] = s.Try(id)
	}
	return out
}

// Commit implements Scheduler. The retired nodes are not needed (marks
// compact dead incarnations lazily), so they land in a stack buffer.
func (s *ConcurrentSGT) Commit(tx int) {
	var buf [4]railNode
	s.graph.commitTx(tx, buf[:0])
}

// Abort implements Scheduler: the incarnation's node leaves the graph and
// its marks die everywhere, atomically under its component's stripe.
func (s *ConcurrentSGT) Abort(tx int) {
	var buf [4]railNode
	s.graph.abortTx(tx, buf[:0])
}

// Victim implements Scheduler: abort the stuck transaction with the most
// incoming conflict edges (most constrained), matching the sequential
// SGT's choice — including its first-max tie-break over the stuck order.
func (s *ConcurrentSGT) Victim(stuck []int) (int, bool) {
	if len(stuck) == 0 {
		return 0, false
	}
	best, bestIn := stuck[0], -1
	for _, tx := range stuck {
		if in := s.graph.indegree(tx); in > bestIn {
			best, bestIn = tx, in
		}
	}
	return best, true
}

// NumShards implements ConcurrentScheduler.
func (s *ConcurrentSGT) NumShards() int { return s.shards }

// ShardOf implements ConcurrentScheduler.
//
//optcc:hotpath
func (s *ConcurrentSGT) ShardOf(v core.Var) int { return shardOfVar(v, s.shards) }
