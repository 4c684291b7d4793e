package online

import (
	"fmt"
	"sync/atomic"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/tstable"
)

// ConcurrentTO is natively concurrent timestamp ordering: the TO scheduler
// rebuilt for the sharded runtime with a lock-free hot path. Where
// Sharded(TO) runs one single-threaded TO per shard behind a shard mutex
// plus the cross-shard ordering rail, ConcurrentTO needs neither — its
// whole state is a sharded atomic timestamp table (internal/tstable,
// partitioned on lockmgr.ShardOfVar) and an atomic transaction-timestamp
// clock, so Try and TryBatch take no mutex on any path.
//
// Why no rail: TO decides every conflict by the one total timestamp order.
// A granted conflicting pair always executes in timestamp order per
// variable, so every conflict-graph edge points from older to newer
// timestamp and no cycle can form, whichever shards the variables live on.
// Timestamp ordering composes across partitions the same way 2PL does —
// the property ConcurrentStrict2PL exploits for locks, applied to
// timestamps.
//
// Why lock-free is enough: the ConcurrentScheduler contract serializes all
// steps of one variable on the decision mutex of its shard, so
// check-then-raise sequences on a single variable's entry never interleave;
// cross-variable and cross-shard traffic touches disjoint entries whose
// CAS max-updates keep per-variable timestamps monotone (the tstable
// invariant) under any interleaving. Transaction timestamps are assigned
// once per incarnation from the atomic clock; Abort restarts the
// transaction with a fresh, strictly later timestamp, which guarantees
// progress exactly as in single-threaded TO.
//
// Under single-goroutine driving its decisions match TO verbatim (both
// basic and Thomas modes) — see TestConcurrentTODecisionEquivalence.
type ConcurrentTO struct {
	base
	// Thomas enables the Thomas write rule: a blind write older than the
	// variable's latest write is skipped rather than aborted.
	Thomas bool
	shards int

	sys   *core.System
	table *tstable.Table
	clock atomic.Int64
	ts    []atomic.Int64 // per-transaction timestamp; 0 = unassigned
}

// NewConcurrentTO returns a natively concurrent basic-TO scheduler over
// the given shard count (minimum 1).
func NewConcurrentTO(shards int) *ConcurrentTO {
	if shards < 1 {
		shards = 1
	}
	return &ConcurrentTO{shards: shards}
}

// NewConcurrentTOThomas returns concurrent timestamp ordering with the
// Thomas write rule.
func NewConcurrentTOThomas(shards int) *ConcurrentTO {
	s := NewConcurrentTO(shards)
	s.Thomas = true
	return s
}

// Name implements Scheduler.
func (s *ConcurrentTO) Name() string {
	if s.Thomas {
		return fmt.Sprintf("cto(%d)/thomas", s.shards)
	}
	return fmt.Sprintf("cto(%d)/basic", s.shards)
}

// Begin implements Scheduler. Re-beginning over the same system (the
// replay harness enumerating histories does this per history) reuses the
// timestamp table via Reset instead of rebuilding its maps.
func (s *ConcurrentTO) Begin(sys *core.System) {
	s.clock.Store(0)
	if sys == s.sys && s.table != nil {
		s.table.Reset()
		for i := range s.ts {
			s.ts[i].Store(0)
		}
		return
	}
	s.sys = sys
	s.ts = make([]atomic.Int64, sys.NumTxs())
	s.table = tstable.New(sys.Vars(), s.shards)
}

// Try implements Scheduler. Lock-free: one immutable map lookup plus
// atomic loads and CAS max-updates.
//
//optcc:hotpath
func (s *ConcurrentTO) Try(id core.StepID) Decision {
	ts := s.ts[id.Tx].Load()
	if ts == 0 {
		ts = s.clock.Add(1)
		s.ts[id.Tx].Store(ts)
	}
	step := s.sys.Step(id)
	e := s.table.Entry(step.Var)
	if conflict.Reads(step.Kind) && ts < e.WriteTS() {
		return AbortTx
	}
	if conflict.Writes(step.Kind) {
		if ts < e.ReadTS() {
			return AbortTx
		}
		if ts < e.WriteTS() {
			if s.Thomas && step.Kind == core.Write {
				// Thomas write rule: obsolete blind write is a no-op.
				return Grant
			}
			return AbortTx
		}
	}
	if conflict.Reads(step.Kind) {
		e.MaxRead(ts)
	}
	if conflict.Writes(step.Kind) {
		e.MaxWrite(ts)
	}
	return Grant
}

// TryBatch implements BatchTrier. The hot path is already lock-free, so
// there is no synchronization to amortize: the native batch path simply
// decides in order without the adapter's indirection.
func (s *ConcurrentTO) TryBatch(ids []core.StepID) []Decision {
	out := make([]Decision, len(ids))
	for i, id := range ids {
		out[i] = s.Try(id)
	}
	return out
}

// Commit implements Scheduler.
func (s *ConcurrentTO) Commit(tx int) {}

// Abort implements Scheduler: the transaction restarts with a fresh
// (strictly later) timestamp, which guarantees progress.
func (s *ConcurrentTO) Abort(tx int) { s.ts[tx].Store(0) }

// NumShards implements ConcurrentScheduler.
func (s *ConcurrentTO) NumShards() int { return s.shards }

// ShardOf implements ConcurrentScheduler.
//
//optcc:hotpath
func (s *ConcurrentTO) ShardOf(v core.Var) int { return shardOfVar(v, s.shards) }
