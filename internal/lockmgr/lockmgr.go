// Package lockmgr provides the lock-table substrate used by locking-based
// schedulers: shared/exclusive locks on variables, FIFO wait queues, lock
// upgrades, a waits-for graph, and the classical deadlock-handling policies
// (detection with victim abort, no-wait, wait-die, wound-wait).
//
// The paper treats locking as a transformation of the transaction system
// plus a trivial lock-respecting scheduler (Section 5); this package is the
// runtime realization of that scheduler's lock bookkeeping. The table is a
// deterministic state machine — blocking and notification are left to the
// caller (internal/online drives it synchronously; internal/sim drives it
// from goroutines under its own lock).
package lockmgr

import (
	"fmt"
	"slices"
	"sort"

	"optcc/internal/core"
)

// TxID identifies a transaction instance registered with the table.
type TxID int

// Mode is a lock mode.
type Mode int

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single holder.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Compatible reports whether a new lock of mode m may coexist with a held
// lock of mode held.
func Compatible(held, m Mode) bool { return held == Shared && m == Shared }

// Policy selects how lock conflicts that could lead to deadlock are
// handled.
type Policy int

const (
	// Detect lets requesters wait and relies on explicit cycle detection;
	// the victim is the youngest transaction on the cycle.
	Detect Policy = iota
	// NoWait aborts the requester immediately on any conflict.
	NoWait
	// WaitDie (non-preemptive): an older requester waits; a younger
	// requester aborts itself ("dies").
	WaitDie
	// WoundWait (preemptive): an older requester aborts ("wounds") the
	// younger holders; a younger requester waits.
	WoundWait
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Detect:
		return "detect"
	case NoWait:
		return "no-wait"
	case WaitDie:
		return "wait-die"
	case WoundWait:
		return "wound-wait"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Status is the outcome of an Acquire call.
type Status int

const (
	// Granted: the lock is held by the requester on return.
	Granted Status = iota
	// Waiting: the request was queued; a later Release will grant it.
	Waiting
	// AbortSelf: the requester must abort (no-wait or wait-die decision).
	AbortSelf
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Granted:
		return "granted"
	case Waiting:
		return "waiting"
	case AbortSelf:
		return "abort-self"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result describes the outcome of an Acquire: the status, and under
// wound-wait the set of wounded holders the caller must abort.
type Result struct {
	Status  Status
	Wounded []TxID
}

// Grant reports a queued request that became held after a release or
// abort.
type Grant struct {
	Tx   TxID
	Var  core.Var
	Mode Mode
}

type waiter struct {
	tx      TxID
	mode    Mode
	upgrade bool
}

type entry struct {
	v       core.Var
	holders map[TxID]Mode
	queue   []waiter
}

// Table is a lock table. It is not safe for concurrent use; callers
// serialize access (the goroutine simulator wraps it in a mutex).
//
// Memory discipline: the uncontended steady-state cycle — Acquire
// (granted), ReleaseAll, Forget — performs zero heap allocations once the
// table is warm. Per-variable entries persist across transactions, held
// maps are pooled through Forget, queued variables are indexed (waitQ) so
// releases never scan the whole table, and the sort scratch is reused.
// Conflict handling (queueing, wounds, waits-for walks) may allocate;
// those paths are paid for by contention, not by every step.
type Table struct {
	policy Policy
	locks  map[core.Var]*entry
	// birth orders transactions for wound-wait/wait-die: smaller is older.
	// A shard table of a ShardedTable keeps no map of its own: owner holds
	// every transaction's birth, and the table reads it from there.
	birth map[TxID]int64
	clock int64
	owner *ShardedTable
	// held tracks, per transaction, the variables it holds (for
	// ReleaseAll).
	held map[TxID]map[core.Var]Mode
	// heldFree recycles held maps across transactions (Forget parks them
	// here cleared), so a fresh transaction's first acquisition does not
	// allocate.
	heldFree []map[core.Var]Mode
	// waitQ indexes the variables with a non-empty wait queue, so
	// ReleaseAll touches only them instead of sweeping every lock entry.
	waitQ map[core.Var]struct{}
	// varBuf and blockBuf are reusable sort/scan scratch.
	varBuf   []core.Var
	blockBuf []TxID
}

// NewTable returns an empty lock table with the given deadlock policy.
func NewTable(policy Policy) *Table {
	return &Table{
		policy: policy,
		locks:  map[core.Var]*entry{},
		birth:  map[TxID]int64{},
		held:   map[TxID]map[core.Var]Mode{},
		waitQ:  map[core.Var]struct{}{},
	}
}

// Policy returns the table's deadlock policy.
func (t *Table) Policy() Policy { return t.policy }

// Register assigns the transaction its birth timestamp (its age priority).
// Re-registering an aborted transaction that restarts keeps its original
// timestamp, which guarantees progress under wound-wait and wait-die.
func (t *Table) Register(tx TxID) {
	if t.owner != nil {
		t.owner.Register(tx)
		return
	}
	if _, ok := t.birth[tx]; !ok {
		t.clock++
		t.birth[tx] = t.clock
	}
}

// birthOf returns tx's birth timestamp and whether tx is registered.
func (t *Table) birthOf(tx TxID) (int64, bool) {
	if t.owner != nil {
		b := t.owner.birthOf(tx)
		return b, b != 0
	}
	b, ok := t.birth[tx]
	return b, ok
}

// AdoptHolder installs tx as a holder of v without going through Acquire.
// It is the escalation hook of the sharded table's lock-free fast path: when
// a contended variable leaves the fast regime, its current fast-path owner
// is adopted into the table so queueing and deadlock handling see it.
func (t *Table) AdoptHolder(tx TxID, v core.Var, m Mode) {
	e := t.entryFor(v)
	e.holders[tx] = m
	t.heldFor(tx)[v] = m
}

// heldFor returns tx's held-variable map, drawing a recycled one from the
// Forget pool before allocating.
func (t *Table) heldFor(tx TxID) map[core.Var]Mode {
	m := t.held[tx]
	if m == nil {
		if n := len(t.heldFree); n > 0 {
			m = t.heldFree[n-1]
			t.heldFree[n-1] = nil
			t.heldFree = t.heldFree[:n-1]
		} else {
			m = map[core.Var]Mode{}
		}
		t.held[tx] = m
	}
	return m
}

// older reports whether a is older (higher priority) than b.
func (t *Table) older(a, b TxID) bool {
	ba, _ := t.birthOf(a)
	bb, _ := t.birthOf(b)
	return ba < bb
}

func (t *Table) entryFor(v core.Var) *entry {
	e := t.locks[v]
	if e == nil {
		e = &entry{v: v, holders: map[TxID]Mode{}}
		t.locks[v] = e
	}
	return e
}

// Holds reports the mode in which tx holds v, if any.
func (t *Table) Holds(tx TxID, v core.Var) (Mode, bool) {
	m, ok := t.held[tx][v]
	return m, ok
}

// HeldBy returns the current holders of v with their modes.
func (t *Table) HeldBy(v core.Var) map[TxID]Mode {
	e := t.locks[v]
	if e == nil {
		return nil
	}
	out := make(map[TxID]Mode, len(e.holders))
	for tx, m := range e.holders {
		out[tx] = m
	}
	return out
}

// QueueLen returns the number of waiters on v.
func (t *Table) QueueLen(v core.Var) int {
	if e := t.locks[v]; e != nil {
		return len(e.queue)
	}
	return 0
}

// Acquire requests a lock on v in mode m for tx. The transaction must be
// registered. Re-acquiring a held lock in the same or weaker mode is a
// no-op grant; requesting Exclusive while holding Shared is an upgrade.
func (t *Table) Acquire(tx TxID, v core.Var, m Mode) Result {
	if _, ok := t.birthOf(tx); !ok {
		t.Register(tx)
	}
	e := t.entryFor(v)
	if cur, ok := e.holders[tx]; ok {
		if cur == Exclusive || m == Shared {
			return Result{Status: Granted}
		}
		// Upgrade S → X: possible when tx is the only holder.
		others := len(e.holders) - 1
		if others == 0 {
			e.holders[tx] = Exclusive
			t.held[tx][v] = Exclusive
			return Result{Status: Granted}
		}
		return t.conflict(tx, v, e, m, true)
	}
	compatible := true
	for _, hm := range e.holders {
		if !Compatible(hm, m) {
			compatible = false
			break
		}
	}
	// FIFO fairness: even a compatible request waits behind queued
	// incompatible waiters, so writers cannot starve.
	if compatible && len(e.queue) == 0 {
		e.holders[tx] = m
		t.heldFor(tx)[v] = m
		return Result{Status: Granted}
	}
	return t.conflict(tx, v, e, m, false)
}

// conflict applies the deadlock policy to an incompatible (or queued)
// request.
func (t *Table) conflict(tx TxID, v core.Var, e *entry, m Mode, upgrade bool) Result {
	blockers := t.blockersOf(tx, e)
	switch t.policy {
	case NoWait:
		return Result{Status: AbortSelf}
	case WaitDie:
		for _, b := range blockers {
			if !t.older(tx, b) {
				return Result{Status: AbortSelf}
			}
		}
	case WoundWait:
		var wounded []TxID
		allYounger := len(blockers) > 0
		for _, b := range blockers {
			if !t.older(tx, b) {
				allYounger = false
			}
		}
		if allYounger {
			for _, b := range blockers {
				wounded = append(wounded, b)
			}
			t.enqueue(e, tx, m, upgrade)
			return Result{Status: Waiting, Wounded: wounded}
		}
	}
	t.enqueue(e, tx, m, upgrade)
	return Result{Status: Waiting}
}

func (t *Table) enqueue(e *entry, tx TxID, m Mode, upgrade bool) {
	for _, w := range e.queue {
		if w.tx == tx {
			return
		}
	}
	t.waitQ[e.v] = struct{}{}
	w := waiter{tx: tx, mode: m, upgrade: upgrade}
	if upgrade {
		// Upgrades go to the front: the holder already has S and cannot
		// release it without aborting.
		e.queue = append([]waiter{w}, e.queue...)
		return
	}
	e.queue = append(e.queue, w)
}

// blockersOf lists the holders (and, for fairness, queued waiters ahead)
// that prevent tx's request, sorted for determinism. The returned slice is
// the table's reusable scratch: it is valid until the next blockersOf call,
// and callers that retain blockers (WaitsFor via mergeSorted, the wound
// list) copy the values out.
func (t *Table) blockersOf(tx TxID, e *entry) []TxID {
	out := t.blockBuf[:0]
	for h := range e.holders {
		if h != tx {
			out = append(out, h)
		}
	}
	slices.Sort(out)
	t.blockBuf = out
	return out
}

// Release releases tx's lock on v (a no-op if not held) and returns the
// requests granted as a consequence, in queue order.
func (t *Table) Release(tx TxID, v core.Var) []Grant {
	e := t.locks[v]
	if e == nil {
		return nil
	}
	if _, ok := e.holders[tx]; !ok {
		return nil
	}
	delete(e.holders, tx)
	delete(t.held[tx], v)
	return t.admit(v, e)
}

// ReleaseAll releases every lock held by tx and removes it from every wait
// queue; it returns all requests granted as a consequence. Use on commit
// and on abort.
//
// Only variables with a non-empty wait queue (the waitQ index) are swept
// for queue removal and post-release admission — an uncontended release
// touches exactly the variables tx holds and allocates nothing (grants stay
// nil when nobody was waiting).
func (t *Table) ReleaseAll(tx TxID) []Grant {
	var grants []Grant
	// Remove from queues first so admissions skip the departing tx.
	if len(t.waitQ) > 0 {
		queued := t.queuedVars()
		for _, v := range queued {
			e := t.locks[v]
			n := e.queue[:0]
			for _, w := range e.queue {
				if w.tx != tx {
					n = append(n, w)
				}
			}
			e.queue = n
			if len(e.queue) == 0 {
				delete(t.waitQ, v)
			}
		}
	}
	vars := t.varBuf[:0]
	for v := range t.held[tx] {
		vars = append(vars, v)
	}
	t.varBuf = vars
	slices.Sort(vars)
	for _, v := range vars {
		grants = append(grants, t.Release(tx, v)...)
	}
	// Queues may now admit waiters even on variables tx merely waited on.
	if len(t.waitQ) > 0 {
		queued := t.queuedVars()
		for _, v := range queued {
			grants = append(grants, t.admit(v, t.locks[v])...)
		}
	}
	return grants
}

// queuedVars snapshots the waitQ index into the reusable varBuf scratch,
// sorted for deterministic sweep order. The snapshot is needed because
// admissions mutate waitQ mid-sweep. Each use of varBuf (queued sweep, held
// sweep, admission sweep) finishes before the next one reuses the scratch.
func (t *Table) queuedVars() []core.Var {
	out := t.varBuf[:0]
	for v := range t.waitQ {
		out = append(out, v)
	}
	t.varBuf = out
	slices.Sort(out)
	return out
}

// admit grants queued requests on v while the head of the queue is
// compatible with the holders, keeping the waitQ index in sync when the
// queue drains.
func (t *Table) admit(v core.Var, e *entry) []Grant {
	var grants []Grant
	for len(e.queue) > 0 {
		w := e.queue[0]
		if w.upgrade {
			// Grantable only when w.tx is the sole holder.
			if len(e.holders) == 1 {
				if _, ok := e.holders[w.tx]; ok {
					e.holders[w.tx] = Exclusive
					t.held[w.tx][v] = Exclusive
					e.queue = e.queue[1:]
					grants = append(grants, Grant{Tx: w.tx, Var: v, Mode: Exclusive})
					continue
				}
			}
			break
		}
		compatible := true
		for h, hm := range e.holders {
			if h == w.tx {
				continue
			}
			if !Compatible(hm, w.mode) {
				compatible = false
				break
			}
		}
		if !compatible {
			break
		}
		e.holders[w.tx] = w.mode
		t.heldFor(w.tx)[v] = w.mode
		e.queue = e.queue[1:]
		grants = append(grants, Grant{Tx: w.tx, Var: v, Mode: w.mode})
	}
	if len(e.queue) == 0 {
		delete(t.waitQ, v)
	}
	return grants
}

// WaitsFor returns the waits-for graph as an adjacency map: w → holders
// blocking w. Only variables with waiters (the waitQ index) can contribute
// edges, so the walk skips uncontended entries.
func (t *Table) WaitsFor() map[TxID][]TxID {
	out := map[TxID][]TxID{}
	for v := range t.waitQ {
		e := t.locks[v]
		for _, w := range e.queue {
			blockers := t.blockersOf(w.tx, e)
			out[w.tx] = mergeSorted(out[w.tx], blockers)
		}
	}
	return out
}

func mergeSorted(a, b []TxID) []TxID {
	seen := map[TxID]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	out := make([]TxID, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DetectDeadlock searches the waits-for graph for a cycle and returns one
// (as an ordered list of transactions) if found.
func (t *Table) DetectDeadlock() ([]TxID, bool) {
	return FindCycle(t.WaitsFor())
}

// FindCycle searches an arbitrary waits-for graph for a cycle and returns
// one (as an ordered list of transactions) if found. The sharded table uses
// it on the union of its per-shard graphs, where cross-shard cycles live.
func FindCycle(g map[TxID][]TxID) ([]TxID, bool) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[TxID]int{}
	parent := map[TxID]TxID{}
	nodes := make([]TxID, 0, len(g))
	for n := range g {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var cycle []TxID
	var dfs func(u TxID) bool
	dfs = func(u TxID) bool {
		color[u] = gray
		for _, v := range g[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a cycle v → ... → u → v.
				cycle = []TxID{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse into forward order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, n := range nodes {
		if color[n] == white && dfs(n) {
			return cycle, true
		}
	}
	return nil, false
}

// ChooseVictim returns the youngest transaction on the cycle (the standard
// minimal-work heuristic).
func (t *Table) ChooseVictim(cycle []TxID) TxID {
	victim := cycle[0]
	for _, tx := range cycle[1:] {
		if t.older(victim, tx) {
			victim = tx
		}
	}
	return victim
}

// Forget removes all record of a transaction that has released everything
// (bookkeeping hygiene between simulator runs). Its birth timestamp is
// retained so restarts keep their age; its held map is cleared and parked
// for reuse by a later transaction (heldFor), keeping the commit cycle
// allocation-free.
func (t *Table) Forget(tx TxID) {
	if m, ok := t.held[tx]; ok {
		clear(m)
		t.heldFree = append(t.heldFree, m)
		delete(t.held, tx)
	}
}

// Invariant checks the table's safety invariants: at most one Exclusive
// holder per variable, no Shared/Exclusive mix, held map consistent with
// entries. It returns an error describing the first violation.
func (t *Table) Invariant() error {
	for v, e := range t.locks {
		x := 0
		for _, m := range e.holders {
			if m == Exclusive {
				x++
			}
		}
		if x > 1 {
			return fmt.Errorf("variable %s: %d exclusive holders", v, x)
		}
		if x == 1 && len(e.holders) > 1 {
			return fmt.Errorf("variable %s: exclusive holder coexists with others", v)
		}
		for tx, m := range e.holders {
			if got, ok := t.held[tx][v]; !ok || got != m {
				return fmt.Errorf("variable %s: holder %d mode mismatch", v, tx)
			}
		}
	}
	return nil
}
