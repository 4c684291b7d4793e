package lockmgr

import (
	"sync"
	"sync/atomic"

	"optcc/internal/core"
)

// ShardedTable is a concurrent lock table: variables are hash-partitioned
// across per-shard Tables, each guarded by its own mutex, so lock traffic on
// independent variables never serializes. Uncontended exclusive locks take a
// lock-free fast path (one CAS, no mutex); the first contended or shared
// access to a variable escalates it permanently into its shard's Table,
// which supplies queueing, upgrades, and the deadlock policies.
//
// Birth timestamps come from one global atomic clock, so wound-wait and
// wait-die age priorities are consistent across shards. The waits-for graph
// and deadlock detection operate on the union of the per-shard graphs,
// where cross-shard cycles live (each edge is intra-shard because every
// variable belongs to exactly one shard, but a cycle may thread through
// several shards via multi-shard transactions).
//
// Concurrency contract: distinct transactions may drive the table from
// distinct goroutines concurrently; operations on behalf of one transaction
// must not overlap with each other (the same per-transaction discipline the
// schedulers and simulator already follow).
type ShardedTable struct {
	policy Policy
	shards []tableShard
	clock  atomic.Int64
	// birthArr and fastArr are the flat per-transaction state for ids
	// reserved with Reserve: a birth timestamp slot (0 = unset) and a
	// fast-path lock set per id, indexed directly — no sync.Map entry
	// allocation per transaction. Ids outside the reserved range fall back
	// to the sync.Maps below.
	birthArr []atomic.Int64
	fastArr  []fastSet
	birth    sync.Map // TxID → int64 (unreserved ids)
	slots    sync.Map // core.Var → *fastSlot
	fast     sync.Map // TxID → *fastSet (unreserved ids)
}

type tableShard struct {
	mu sync.Mutex
	t  *Table
}

// fastSlot is the lock-free fast-path state of one variable.
// state encodings: 0 = free (fast regime), tx+1 = exclusively held by tx
// (fast regime), escalated = permanently in the shard Table's slow path.
type fastSlot struct {
	state atomic.Int64
}

const escalated = -1

//optcc:hotpath
func encTx(tx TxID) int64 { return int64(tx) + 1 }

//optcc:hotpath
func decTx(st int64) TxID { return TxID(st - 1) }

// fastSet tracks the variables a transaction holds via the fast path, so
// ReleaseAll can find them. The first few variables live in an inline
// array — transactions rarely fast-hold more — so the steady-state
// add/remove/drain cycle allocates nothing; the overflow slice keeps its
// capacity across a transaction's attempts.
type fastSet struct {
	mu   sync.Mutex
	n    int
	arr  [4]core.Var
	over []core.Var
}

// add records a fast-held variable. Caller holds fs.mu. Callers never add
// a variable twice: the fast path adds only on a winning CAS, and a
// reentrant grant returns before reaching here.
//
//optcc:hotpath
func (fs *fastSet) add(v core.Var) {
	if fs.n < len(fs.arr) {
		fs.arr[fs.n] = v
		fs.n++
		return
	}
	//cclint:ignore hotpath overflow beyond the inline array is the rare many-locks case; capacity is kept across attempts
	fs.over = append(fs.over, v)
}

// remove drops one occurrence of v (a no-op if absent). Caller holds fs.mu.
//
//optcc:hotpath
func (fs *fastSet) remove(v core.Var) {
	for i := 0; i < fs.n; i++ {
		if fs.arr[i] == v {
			fs.n--
			fs.arr[i] = fs.arr[fs.n]
			fs.arr[fs.n] = ""
			return
		}
	}
	for i, o := range fs.over {
		if o == v {
			last := len(fs.over) - 1
			fs.over[i] = fs.over[last]
			fs.over[last] = ""
			fs.over = fs.over[:last]
			return
		}
	}
}

// drain visits every tracked variable and empties the set, releasing the
// string references but keeping the overflow capacity. Caller holds fs.mu.
func (fs *fastSet) drain(fn func(v core.Var)) {
	for i := 0; i < fs.n; i++ {
		fn(fs.arr[i])
		fs.arr[i] = ""
	}
	fs.n = 0
	for i, o := range fs.over {
		fn(o)
		fs.over[i] = ""
	}
	fs.over = fs.over[:0]
}

// NewShardedTable returns a sharded lock table with the given deadlock
// policy and shard count (minimum 1).
func NewShardedTable(policy Policy, shards int) *ShardedTable {
	if shards < 1 {
		shards = 1
	}
	st := &ShardedTable{policy: policy, shards: make([]tableShard, shards)}
	for i := range st.shards {
		t := NewTable(policy)
		t.birth, t.owner = nil, st
		st.shards[i].t = t
	}
	return st
}

// Policy returns the table's deadlock policy.
func (s *ShardedTable) Policy() Policy { return s.policy }

// Reserve preallocates flat per-transaction state for transaction ids
// [0, n): birth timestamps and fast-path lock sets live in arrays instead
// of sync.Maps, so registering, fast-locking and releasing a reserved id
// allocates nothing. Call it once, before the table is driven concurrently
// (ConcurrentStrict2PL calls it from Begin with the system's transaction
// count); ids outside the range keep working through the sync.Map fallback.
func (s *ShardedTable) Reserve(n int) {
	if n > len(s.birthArr) {
		s.birthArr = make([]atomic.Int64, n)
		s.fastArr = make([]fastSet, n)
	}
}

// reserved reports whether tx falls in the Reserve range.
//
//optcc:hotpath
func (s *ShardedTable) reserved(tx TxID) bool {
	return tx >= 0 && int(tx) < len(s.birthArr)
}

// NumShards returns the shard count.
func (s *ShardedTable) NumShards() int { return len(s.shards) }

// ShardOf returns the shard owning variable v.
func (s *ShardedTable) ShardOf(v core.Var) int { return ShardOfVar(v, len(s.shards)) }

// ShardOfVar hash-partitions a variable across n shards: inlined FNV-1a so
// the hot paths (every Acquire/Release and every dispatch route) allocate
// nothing. This is THE partition function — online's Sharded combinator
// uses it too, so dispatch routing and lock-shard ownership always agree.
//
//optcc:hotpath
func ShardOfVar(v core.Var, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(v); i++ {
		h ^= uint32(v[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Register assigns the transaction its birth timestamp from the global
// clock. Re-registering keeps the original timestamp, preserving
// wound-wait/wait-die progress guarantees. The per-shard tables read births
// from here (Table.birthOf), so registering takes no shard mutex.
func (s *ShardedTable) Register(tx TxID) {
	if s.birthOf(tx) != 0 {
		return
	}
	if s.reserved(tx) {
		// Timestamps start at 1, so 0 is an unambiguous "unset"; the CAS
		// keeps the first registration's timestamp under races.
		s.birthArr[tx].CompareAndSwap(0, s.clock.Add(1))
	} else {
		s.birth.LoadOrStore(tx, s.clock.Add(1))
	}
}

//optcc:hotpath
func (s *ShardedTable) slot(v core.Var) *fastSlot {
	//cclint:ignore hotpath sync.Map lookup is the slot registry; one boxed key per lookup is the accepted cost until slots are reserved like birthArr
	if sl, ok := s.slots.Load(v); ok {
		return sl.(*fastSlot)
	}
	//cclint:ignore hotpath first-touch slot creation happens once per variable, not per request
	sl, _ := s.slots.LoadOrStore(v, &fastSlot{})
	return sl.(*fastSlot)
}

//optcc:hotpath
func (s *ShardedTable) fastSetOf(tx TxID) *fastSet {
	if s.reserved(tx) {
		return &s.fastArr[tx]
	}
	//cclint:ignore hotpath unreserved-id fallback; ConcurrentStrict2PL reserves every id up front
	if fs, ok := s.fast.Load(tx); ok {
		return fs.(*fastSet)
	}
	//cclint:ignore hotpath unreserved-id fallback; ConcurrentStrict2PL reserves every id up front
	fs, _ := s.fast.LoadOrStore(tx, &fastSet{})
	return fs.(*fastSet)
}

// fastSetIfAny is fastSetOf without the create-on-miss: release paths use
// it so releasing for a transaction that never fast-locked allocates
// nothing.
//
//optcc:hotpath
func (s *ShardedTable) fastSetIfAny(tx TxID) *fastSet {
	if s.reserved(tx) {
		return &s.fastArr[tx]
	}
	//cclint:ignore hotpath unreserved-id fallback; ConcurrentStrict2PL reserves every id up front
	if fs, ok := s.fast.Load(tx); ok {
		return fs.(*fastSet)
	}
	return nil
}

// escalate moves v out of the fast regime into the shard Table. Caller
// holds the shard mutex. If a fast-path owner loses the race, it is adopted
// into the Table so queueing and deadlock handling see it; its own release
// will then go through the slow path (the fast-release CAS fails).
func (s *ShardedTable) escalate(sl *fastSlot, t *Table, v core.Var) {
	for {
		st := sl.state.Load()
		if st == escalated {
			return
		}
		if sl.state.CompareAndSwap(st, escalated) {
			if st > 0 {
				t.AdoptHolder(decTx(st), v, Exclusive)
			}
			return
		}
	}
}

// tryFast attempts the lock-free fast path for one request: a reentrant
// grant on a variable tx already fast-holds exclusively (which satisfies
// any requested mode, so no escalation is needed), or a single-CAS
// acquisition for an Exclusive request on a free fast-regime variable.
// ok=false means the request must go through the owning shard's Table.
// It is THE fast path — Acquire and AcquireBatch both use it, so the
// batched and unbatched lock managers cannot drift apart.
//
//optcc:hotpath
func (s *ShardedTable) tryFast(tx TxID, sl *fastSlot, v core.Var, m Mode) (Result, bool) {
	st := sl.state.Load()
	if st == encTx(tx) {
		return Result{Status: Granted}, true
	}
	if m == Exclusive && st == 0 && sl.state.CompareAndSwap(0, encTx(tx)) {
		fs := s.fastSetOf(tx)
		fs.mu.Lock()
		fs.add(v)
		fs.mu.Unlock()
		return Result{Status: Granted}, true
	}
	return Result{}, false
}

// Acquire requests a lock on v in mode m for tx. Exclusive requests on a
// variable still in the fast regime are a single CAS; everything else goes
// through the owning shard's Table under its mutex.
func (s *ShardedTable) Acquire(tx TxID, v core.Var, m Mode) Result {
	if s.birthOf(tx) == 0 {
		s.Register(tx)
	}
	sl := s.slot(v)
	if r, ok := s.tryFast(tx, sl, v, m); ok {
		return r
	}
	sh := &s.shards[s.ShardOf(v)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.escalate(sl, sh.t, v)
	return sh.t.Acquire(tx, v, m)
}

// BatchReq is one request of an AcquireBatch.
type BatchReq struct {
	Tx   TxID
	Var  core.Var
	Mode Mode
}

// AcquireBatch acquires a batch of lock requests for distinct transactions
// and returns the per-request results, aligned with reqs. It is equivalent
// to calling Acquire on each request in order — requests are decided
// strictly in batch order, so two same-variable requests in one batch
// resolve exactly as they would sequentially (a later fast-path-eligible
// request can never jump ahead of an earlier conflicting one) — but one
// shard-mutex acquisition is shared across every consecutive run of
// slow-path requests on the same shard. The batched parked-queue retries in
// internal/sim send same-shard batches, so the common case is at most one
// mutex acquisition per batch, and all-fast-path batches take none.
func (s *ShardedTable) AcquireBatch(reqs []BatchReq) []Result {
	return s.AcquireBatchInto(nil, reqs)
}

// AcquireBatchInto is AcquireBatch appending into out[:0], so a caller
// holding a reusable result buffer (online.ConcurrentStrict2PL keeps one
// per shard) pays no per-batch allocation.
func (s *ShardedTable) AcquireBatchInto(out []Result, reqs []BatchReq) []Result {
	// Register up front, so every holder — fast-path ones included — has
	// its age before any conflict below compares it.
	for _, r := range reqs {
		if s.birthOf(r.Tx) == 0 {
			s.Register(r.Tx)
		}
	}
	out = out[:0]
	held := -1
	for _, r := range reqs {
		sl := s.slot(r.Var)
		if res, ok := s.tryFast(r.Tx, sl, r.Var, r.Mode); ok {
			out = append(out, res)
			continue
		}
		si := s.ShardOf(r.Var)
		if si != held {
			if held >= 0 {
				s.shards[held].mu.Unlock()
			}
			s.shards[si].mu.Lock()
			held = si
		}
		s.escalate(sl, s.shards[si].t, r.Var)
		out = append(out, s.shards[si].t.Acquire(r.Tx, r.Var, r.Mode))
	}
	if held >= 0 {
		s.shards[held].mu.Unlock()
	}
	return out
}

// Release releases tx's lock on v and returns any requests granted as a
// consequence (always nil on the fast path: an uncontended variable has no
// waiters by construction).
func (s *ShardedTable) Release(tx TxID, v core.Var) []Grant {
	sl := s.slot(v)
	if sl.state.CompareAndSwap(encTx(tx), 0) {
		s.dropFast(tx, v)
		return nil
	}
	s.dropFast(tx, v)
	sh := &s.shards[s.ShardOf(v)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.t.Release(tx, v)
}

//optcc:hotpath
func (s *ShardedTable) dropFast(tx TxID, v core.Var) {
	if fs := s.fastSetIfAny(tx); fs != nil {
		fs.mu.Lock()
		fs.remove(v)
		fs.mu.Unlock()
	}
}

// ReleaseAll releases every lock held by tx — fast-path holds by CAS,
// everything else through the per-shard tables — and removes it from every
// wait queue. It returns all requests granted as a consequence (nil when
// nothing was waiting: the whole uncontended release is allocation-free).
func (s *ShardedTable) ReleaseAll(tx TxID) []Grant {
	if fs := s.fastSetIfAny(tx); fs != nil {
		fs.mu.Lock()
		fs.drain(func(v core.Var) {
			// If the CAS fails the variable was escalated and the hold was
			// adopted into its shard Table; the sweep below releases it.
			s.slot(v).state.CompareAndSwap(encTx(tx), 0)
		})
		fs.mu.Unlock()
	}
	var grants []Grant
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		grants = append(grants, sh.t.ReleaseAll(tx)...)
		sh.mu.Unlock()
	}
	return grants
}

// Holds reports the mode in which tx holds v, if any.
func (s *ShardedTable) Holds(tx TxID, v core.Var) (Mode, bool) {
	if s.slot(v).state.Load() == encTx(tx) {
		return Exclusive, true
	}
	sh := &s.shards[s.ShardOf(v)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.t.Holds(tx, v)
}

// HeldBy returns the current holders of v with their modes.
func (s *ShardedTable) HeldBy(v core.Var) map[TxID]Mode {
	if st := s.slot(v).state.Load(); st > 0 {
		return map[TxID]Mode{decTx(st): Exclusive}
	}
	sh := &s.shards[s.ShardOf(v)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.t.HeldBy(v)
}

// QueueLen returns the number of waiters on v (zero while v is in the fast
// regime: contention is what ends it).
func (s *ShardedTable) QueueLen(v core.Var) int {
	if s.slot(v).state.Load() != escalated {
		return 0
	}
	sh := &s.shards[s.ShardOf(v)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.t.QueueLen(v)
}

// WaitsFor returns the global waits-for graph: the union of the per-shard
// graphs. Fast-regime variables contribute nothing (no waiters).
func (s *ShardedTable) WaitsFor() map[TxID][]TxID {
	out := map[TxID][]TxID{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for w, blockers := range sh.t.WaitsFor() {
			out[w] = mergeSorted(out[w], blockers)
		}
		sh.mu.Unlock()
	}
	return out
}

// DetectDeadlock searches the global waits-for graph for a cycle, catching
// cross-shard cycles no single shard can see.
func (s *ShardedTable) DetectDeadlock() ([]TxID, bool) {
	return FindCycle(s.WaitsFor())
}

// ChooseVictim returns the youngest transaction on the cycle.
func (s *ShardedTable) ChooseVictim(cycle []TxID) TxID {
	victim := cycle[0]
	for _, tx := range cycle[1:] {
		if s.birthOf(tx) > s.birthOf(victim) {
			victim = tx
		}
	}
	return victim
}

//optcc:hotpath
func (s *ShardedTable) birthOf(tx TxID) int64 {
	if s.reserved(tx) {
		return s.birthArr[tx].Load()
	}
	//cclint:ignore hotpath unreserved-id fallback; ConcurrentStrict2PL reserves every id up front
	if b, ok := s.birth.Load(tx); ok {
		return b.(int64)
	}
	return 0
}

// Forget removes per-transaction bookkeeping after everything is released;
// the birth timestamp is retained so restarts keep their age. A reserved
// id's fast set is cleared in place (its storage is reused on restart);
// unreserved ids drop their sync.Map entry.
func (s *ShardedTable) Forget(tx TxID) {
	if s.reserved(tx) {
		fs := &s.fastArr[tx]
		fs.mu.Lock()
		fs.drain(func(core.Var) {})
		fs.mu.Unlock()
	} else {
		s.fast.Delete(tx)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.t.Forget(tx)
		sh.mu.Unlock()
	}
}

// Invariant checks every shard's safety invariants plus the fast path's:
// a fast-held variable must not also have holders in its shard Table.
func (s *ShardedTable) Invariant() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.t.Invariant()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	var bad error
	s.slots.Range(func(k, v any) bool {
		if v.(*fastSlot).state.Load() > 0 {
			// A fast-held variable must have no holders in its shard Table
			// (its entire lock state lives in the slot until escalation).
			vr := k.(core.Var)
			sh := &s.shards[s.ShardOf(vr)]
			sh.mu.Lock()
			held := sh.t.HeldBy(vr)
			sh.mu.Unlock()
			if len(held) != 0 {
				bad = &fastInvariantError{v: vr}
				return false
			}
		}
		return true
	})
	return bad
}

type fastInvariantError struct{ v core.Var }

func (e *fastInvariantError) Error() string {
	return "sharded table: fast-path invariant violated on " + string(e.v)
}
