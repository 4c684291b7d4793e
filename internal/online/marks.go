package online

import (
	"sync"
	"sync/atomic"

	"optcc/internal/core"
)

// This file holds the per-variable mark tables behind the natively
// concurrent SGT and OCC schedulers — siblings of internal/tstable's
// timestamp table, with the same layout discipline: the variable set is
// fixed per run, so the tables pre-build immutable per-shard maps from
// variable to a heap-allocated entry (lookups are pure reads, no lock, no
// sync.Map on the hot path), partitioned with the engine's single
// partition function so table layout agrees with dispatch routing.
// Variables outside the declared set (none in normal operation) fall back
// to a sync.Map so the tables degrade safely instead of panicking.
//
// What the entries hold differs per scheduler, and so does who may touch
// them:
//
//   - sgtEntry (ConcurrentSGT) keeps the variable's live reader and writer
//     incarnation lists plus the source-collection scratch. These are
//     plain slices with no synchronization of their own: the
//     ConcurrentScheduler contract serializes every step of one variable
//     on the decision mutex of its shard, so a variable's sgtEntry is only
//     ever read or mutated by the current holder of that mutex. Dead
//     incarnations (aborted, or committed and pruned from the graph) are
//     compacted out lazily on the variable's next visit.
//   - occEntry (ConcurrentOCC) is read across shards by validators, so
//     its writer-mark list is published copy-on-write through an atomic
//     pointer: the holder of the owning shard's decision mutex builds a
//     fresh slice (compacting
//     dead marks) and stores it; validators load a consistent snapshot
//     lock-free. Marks of concurrently-validating peers that entered
//     validation earlier are always visible in the snapshot — the mark
//     store precedes the peer's validation-epoch draw in the
//     sequentially-consistent atomic order.
type sgtEntry struct {
	readers []railNode
	writers []railNode
	srcBuf  []railNode // source-collection scratch, reused across Trys
	addBuf  []railNode // graph-insert scratch (ConcurrentSGT never withdraws)
}

// sgtMarks is the sharded variable→sgtEntry table.
type sgtMarks struct {
	shards []map[core.Var]*sgtEntry
	extra  sync.Map // core.Var → *sgtEntry, for undeclared variables only
}

func newSGTMarks(vars []core.Var, shards int) *sgtMarks {
	if shards < 1 {
		shards = 1
	}
	t := &sgtMarks{shards: make([]map[core.Var]*sgtEntry, shards)}
	for i := range t.shards {
		t.shards[i] = map[core.Var]*sgtEntry{}
	}
	for _, v := range vars {
		t.shards[shardOfVar(v, shards)][v] = &sgtEntry{}
	}
	return t
}

// entry returns the mark entry of v, creating a fallback entry if v was
// not declared at construction. The declared-variable path is one
// immutable map lookup.
//
//optcc:hotpath
func (t *sgtMarks) entry(v core.Var) *sgtEntry {
	if e, ok := t.shards[shardOfVar(v, len(t.shards))][v]; ok {
		return e
	}
	//cclint:ignore hotpath undeclared-variable fallback; unreachable when the run declares its variable set
	if e, ok := t.extra.Load(v); ok {
		return e.(*sgtEntry)
	}
	//cclint:ignore hotpath undeclared-variable fallback; unreachable when the run declares its variable set
	e, _ := t.extra.LoadOrStore(v, &sgtEntry{})
	return e.(*sgtEntry)
}

// reset empties every mark list, preserving entry layout and slice
// capacity. Only safe between runs (Begin), when nothing decides.
func (t *sgtMarks) reset() {
	for _, m := range t.shards {
		for _, e := range m {
			e.readers = e.readers[:0]
			e.writers = e.writers[:0]
		}
	}
	t.extra.Range(func(_, v any) bool {
		e := v.(*sgtEntry)
		e.readers = e.readers[:0]
		e.writers = e.writers[:0]
		return true
	})
}

// occWriterMark records one incarnation's first write of a variable: who,
// which epoch, and the grant stamp of that first write.
type occWriterMark struct {
	tx    int
	epoch int
	stamp int64
}

// occEntry holds one variable's copy-on-write writer-mark list.
type occEntry struct {
	writers atomic.Pointer[[]occWriterMark]
}

// occMarks is the sharded variable→occEntry table.
type occMarks struct {
	shards []map[core.Var]*occEntry
	extra  sync.Map // core.Var → *occEntry, for undeclared variables only
}

func newOCCMarks(vars []core.Var, shards int) *occMarks {
	if shards < 1 {
		shards = 1
	}
	t := &occMarks{shards: make([]map[core.Var]*occEntry, shards)}
	for i := range t.shards {
		t.shards[i] = map[core.Var]*occEntry{}
	}
	for _, v := range vars {
		t.shards[shardOfVar(v, shards)][v] = &occEntry{}
	}
	return t
}

// entry returns the mark entry of v, creating a fallback entry if v was
// not declared at construction. The declared-variable path is one
// immutable map lookup.
//
//optcc:hotpath
func (t *occMarks) entry(v core.Var) *occEntry {
	if e, ok := t.shards[shardOfVar(v, len(t.shards))][v]; ok {
		return e
	}
	//cclint:ignore hotpath undeclared-variable fallback; unreachable when the run declares its variable set
	if e, ok := t.extra.Load(v); ok {
		return e.(*occEntry)
	}
	//cclint:ignore hotpath undeclared-variable fallback; unreachable when the run declares its variable set
	e, _ := t.extra.LoadOrStore(v, &occEntry{})
	return e.(*occEntry)
}

// reset drops every writer-mark list. Only safe between runs (Begin).
func (t *occMarks) reset() {
	for _, m := range t.shards {
		for _, e := range m {
			e.writers.Store(nil)
		}
	}
	t.extra.Range(func(_, v any) bool {
		v.(*occEntry).writers.Store(nil)
		return true
	})
}
