package online

import (
	"fmt"
	"math"
	"sync/atomic"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/tstable"
)

// coccPhase values packed into ConcurrentOCC.phase below the epoch bits.
const (
	occIdle       = 0 // incarnation has not begun (or was reset)
	occActive     = 1 // executing steps
	occValidating = 2 // inside the validating grant of its last step
	occCommitted  = 3 // validated and committed
)

// occFinalWrite stamps the final write's mark, published before
// validation. The write executes only after the commit point, so no read
// can have observed it: the mark never counts as a dirty-read source, only
// for the validating tie-break until the commit stamps cover it.
const occFinalWrite = math.MaxInt64

// coccAccess is one variable of a transaction's footprint: the stamp of
// the incarnation's LAST read and FIRST write of it (0 = never; real
// stamps start at 1). Last read, because writes execute in place: a
// repeat read observes the latest state, so the dirty-read check must
// catch a writer that slid between two reads of the same variable.
// First write, because the check on the other side asks whether any
// write precedes the reader's last read.
type coccAccess struct {
	v      core.Var
	rstamp int64
	wstamp int64
}

// coccTx is one transaction's private footprint. Per-transaction scheduler
// calls never overlap (ConcurrentScheduler contract), so the access list
// is owner-only with no synchronization. A transaction touches at most
// len(Steps) distinct variables, so Begin carves each list out of one
// shared slab at exactly that capacity — footprint recording never
// allocates, and lookups are linear scans of a handful of entries.
type coccTx struct {
	start int64 // clock at first Try; -1 = unassigned
	acc   []coccAccess
}

// access returns the footprint entry of v, appending a fresh one if the
// incarnation has not touched v yet.
//
//optcc:hotpath
func (st *coccTx) access(v core.Var) *coccAccess {
	for i := range st.acc {
		if st.acc[i].v == v {
			return &st.acc[i]
		}
	}
	//cclint:ignore hotpath append within the slab capacity carved at Begin; never grows
	st.acc = append(st.acc, coccAccess{v: v})
	return &st.acc[len(st.acc)-1]
}

// ConcurrentOCC is natively concurrent optimistic concurrency control:
// Kung–Robinson-style backward validation rebuilt for the sharded runtime
// with no global critical section. Where Sharded(OCC) serializes each
// shard's validation behind a shard mutex plus the cross-shard rail,
// ConcurrentOCC validates lock-free against three epoch-published
// structures:
//
//   - commits, an internal/tstable timestamp table whose per-variable
//     write stamp is raised (CAS max-loop) to the committing transaction's
//     commit epoch for everything it wrote. The sequential OCC's history
//     scan "did any transaction that committed during my lifetime write
//     v?" collapses to one monotone comparison: lastCommitWrite(v) >
//     start.
//   - per-variable writer-mark lists (marks.go), published copy-on-write
//     under the variable's shard decision mutex and read lock-free by
//     validators: the dirty-read check (did I read a variable an active
//     transaction had written?) scans the live marks of my read set.
//   - per-transaction phase/epoch atomics. Commit publishing is ordered —
//     write stamps first, committed phase last — so a validator that
//     observes the committed phase finds the stamps already in place, and
//     one that observes a stale active phase conservatively aborts via the
//     dirty check.
//
// Concurrent validations are serialized by a validation epoch drawn from
// the shared atomic clock: a transaction publishes its epoch and a
// validating phase before scanning, and treats any peer already
// validating with a smaller epoch as committed-pending — if that peer's
// writes intersect my footprint I abort, which breaks the classic
// "both validate before either publishes" race. Epochs are unique and
// monotone with validation entry (atomic Add), so of two racing
// validators with intersecting write sets the later one always observes
// the earlier one's marks and yields; committed transactions are ordered
// by their validation epochs and every cross-edge among them points
// forward in that order, keeping the committed schedule
// conflict-serializable without any lock.
//
// The commit point is the validating grant of the last step, exactly as
// in the sequential OCC (see tsocc.go on why deferring it to Commit is a
// race). Under single-goroutine driving its decisions match OCC verbatim
// — see TestConcurrentOCCDecisionEquivalence; the validating-peer branch
// never fires there (validation completes within one Try call), and the
// clock mirrors the sequential increments tick for tick.
type ConcurrentOCC struct {
	base
	shards int

	sys     *core.System
	clock   atomic.Int64
	commits *tstable.Table // per-variable last committed write epoch
	wmarks  *occMarks
	txs     []coccTx
	phase   []atomic.Int64 // epoch<<2 | coccPhase
	vepoch  []atomic.Int64 // validation epoch, published before occValidating
}

// NewConcurrentOCC returns a natively concurrent optimistic scheduler
// over the given shard count (minimum 1).
func NewConcurrentOCC(shards int) *ConcurrentOCC {
	if shards < 1 {
		shards = 1
	}
	return &ConcurrentOCC{shards: shards}
}

// Name implements Scheduler.
func (s *ConcurrentOCC) Name() string {
	return fmt.Sprintf("cocc(%d)/backward", s.shards)
}

// Begin implements Scheduler. Re-beginning over the same system reuses
// the tables via reset instead of rebuilding their maps.
func (s *ConcurrentOCC) Begin(sys *core.System) {
	s.clock.Store(0)
	if sys == s.sys && s.commits != nil && len(s.txs) == sys.NumTxs() {
		s.commits.Reset()
		s.wmarks.reset()
		for i := range s.phase {
			s.phase[i].Store(0)
			s.vepoch[i].Store(0)
		}
		for i := range s.txs {
			s.resetTx(i)
		}
		return
	}
	s.sys = sys
	n := sys.NumTxs()
	s.commits = tstable.New(sys.Vars(), s.shards)
	s.wmarks = newOCCMarks(sys.Vars(), s.shards)
	s.phase = make([]atomic.Int64, n)
	s.vepoch = make([]atomic.Int64, n)
	s.txs = make([]coccTx, n)
	total := 0
	for i := range sys.Txs {
		total += len(sys.Txs[i].Steps)
	}
	slab := make([]coccAccess, total)
	off := 0
	for i := range s.txs {
		k := len(sys.Txs[i].Steps)
		s.txs[i] = coccTx{start: -1, acc: slab[off : off : off+k]}
		off += k
	}
}

// resetTx clears a transaction's private footprint for its next
// incarnation. The phase/epoch atomics are managed by the caller.
//
//optcc:hotpath
func (s *ConcurrentOCC) resetTx(tx int) {
	st := &s.txs[tx]
	st.start = -1
	st.acc = st.acc[:0]
}

// mark records the step's first access of its variable in the private
// footprint and, for writes, publishes the writer mark for cross-shard
// validators. Runs on the variable's dispatch goroutine.
//
//optcc:hotpath
func (s *ConcurrentOCC) mark(st *coccTx, step core.Step, stamp int64, tx int, epoch int64) {
	a := st.access(step.Var)
	if conflict.Reads(step.Kind) {
		a.rstamp = stamp // last read (see coccAccess)
	}
	if conflict.Writes(step.Kind) && a.wstamp == 0 {
		a.wstamp = stamp
		s.publishWriter(s.wmarks.entry(step.Var), tx, epoch, stamp)
	}
}

// publishWriter appends the incarnation's writer mark to the variable's
// copy-on-write list, compacting dead and committed marks (committed
// writers are covered by the commit stamps, published before their
// committed phase). Only the holder of the variable's shard decision mutex
// publishes, so a plain pointer store suffices; validators load snapshots
// lock-free.
//
//optcc:hotpath
func (s *ConcurrentOCC) publishWriter(e *occEntry, tx int, epoch int64, stamp int64) {
	old := e.writers.Load()
	n := 1
	if old != nil {
		n += len(*old)
	}
	//cclint:ignore hotpath copy-on-write publish: one small slice per incarnation's first write of a variable
	buf := make([]occWriterMark, 0, n)
	if old != nil {
		for _, m := range *old {
			if m.tx == tx {
				continue // superseded by this incarnation
			}
			p := s.phase[m.tx].Load()
			if p>>2 != int64(m.epoch) || p&3 == occCommitted {
				continue
			}
			//cclint:ignore hotpath append within the capacity reserved above; never grows
			buf = append(buf, m)
		}
	}
	//cclint:ignore hotpath append within the capacity reserved above; never grows
	buf = append(buf, occWriterMark{tx: tx, epoch: int(epoch), stamp: stamp})
	fresh := buf // published below; the pointee is immutable from here on
	e.writers.Store(&fresh)
}

// Try implements Scheduler. Non-final steps record marks lock-free; the
// final step draws a validation epoch, validates backward against
// concurrently committed write sets and still-active writers, and on
// success commits — stamps published before the committed phase — all
// without any global critical section.
//
//optcc:hotpath
func (s *ConcurrentOCC) Try(id core.StepID) Decision {
	tx := id.Tx
	st := &s.txs[tx]
	epoch := s.phase[tx].Load() >> 2
	if st.start < 0 {
		st.start = s.clock.Load()
		s.phase[tx].Store(epoch<<2 | occActive)
	}
	step := s.sys.Step(id)
	if id.Idx != len(s.sys.Txs[tx].Steps)-1 {
		s.mark(st, step, s.clock.Add(1), tx, epoch)
		return Grant
	}
	// Enter validation in publication order: the final write's mark, then
	// the validating phase, then the validation epoch — unique and monotone
	// with entry order. A peer that draws a later epoch therefore finds
	// this write and sees us validating; it yields, since our published
	// epoch is either the one drawn here or an older incarnation's, both
	// smaller than its own. The mark stays visible until the commit stamps
	// cover the write.
	if conflict.Writes(step.Kind) {
		if a := st.access(step.Var); a.wstamp == 0 {
			a.wstamp = occFinalWrite
			s.publishWriter(s.wmarks.entry(step.Var), tx, epoch, occFinalWrite)
		}
	}
	s.phase[tx].Store(epoch<<2 | occValidating)
	vE := s.clock.Add(1)
	s.vepoch[tx].Store(vE)
	if !s.validate(tx, st, step, vE) {
		s.phase[tx].Store(epoch<<2 | occActive)
		return AbortTx
	}
	// Commit point, atomic with the validating grant (see tsocc.go): the
	// commit stamps, then the committed phase.
	commitTS := s.clock.Add(1)
	for i := range st.acc {
		if st.acc[i].wstamp > 0 {
			s.commits.Entry(st.acc[i].v).MaxWrite(commitTS)
		}
	}
	s.phase[tx].Store(epoch<<2 | occCommitted)
	s.resetTx(tx)
	return Grant
}

// validate runs backward validation for tx's current incarnation with the
// final step included prospectively at stamp vE, mirroring the sequential
// OCC's three checks (see tsocc.go): (a) backward r/w and (c) backward
// w/w via the per-variable commit stamps, (b) dirty reads via the live
// writer marks — plus the concurrent-only tie-break against peers already
// validating with a smaller epoch.
//
//optcc:hotpath
func (s *ConcurrentOCC) validate(tx int, st *coccTx, step core.Step, vE int64) bool {
	for i := range st.acc {
		a := &st.acc[i]
		// An entry both read and written is covered by the read-side check:
		// it subsumes the commit probe and the validating tie-break.
		if !s.checkVar(tx, a.v, a.rstamp, a.rstamp > 0, vE, st.start) {
			return false
		}
	}
	// Prospective final read at stamp vE: it always re-checks with rt =
	// vE — even of a variable read before — because it is the
	// incarnation's last read of it. A final write is already in the
	// footprint, marked before the epoch draw.
	if conflict.Reads(step.Kind) {
		return s.checkVar(tx, step.Var, vE, true, vE, st.start)
	}
	return true
}

// checkVar validates one variable of the footprint: the commit-stamp
// probe, then the writer-mark scan. rt is the first-read stamp (only
// meaningful when isRead).
//
//optcc:hotpath
func (s *ConcurrentOCC) checkVar(tx int, v core.Var, rt int64, isRead bool, vE, start int64) bool {
	// (a)/(c): a transaction that committed during my lifetime wrote v.
	if s.commits.Entry(v).WriteTS() > start {
		return false
	}
	list := s.wmarks.entry(v).writers.Load()
	if list == nil {
		return true
	}
	for _, m := range *list {
		if m.tx == tx {
			continue
		}
		p := s.phase[m.tx].Load()
		if p>>2 != int64(m.epoch) {
			continue // a dead incarnation's mark
		}
		switch p & 3 {
		case occCommitted:
			// Committed after the probe above; its stamps were published
			// before the committed phase, so re-probe.
			if s.commits.Entry(v).WriteTS() > start {
				return false
			}
		case occValidating:
			if s.vepoch[m.tx].Load() < vE {
				// Entered validation before me and wrote something in my
				// footprint: treat as committed-pending.
				return false
			}
			// Entered validation after me: still active for my purposes.
			if isRead && m.stamp < rt {
				return false
			}
		case occActive:
			// (b): dirty read from a still-active writer.
			if isRead && m.stamp < rt {
				return false
			}
		}
	}
	return true
}

// TryBatch implements BatchTrier. The hot path is already lock-free, so
// there is no synchronization to amortize: the native batch path simply
// decides in order without the adapter's indirection.
func (s *ConcurrentOCC) TryBatch(ids []core.StepID) []Decision {
	out := make([]Decision, len(ids))
	for i, id := range ids {
		out[i] = s.Try(id)
	}
	return out
}

// Commit implements Scheduler. The commit point is the validating grant
// of the last step (see Try), which already published the commit stamps
// and reset the footprint; nothing is left to do here.
func (s *ConcurrentOCC) Commit(tx int) {}

// Abort implements Scheduler: a fresh epoch retires every mark of the old
// incarnation at once.
func (s *ConcurrentOCC) Abort(tx int) {
	epoch := s.phase[tx].Load() >> 2
	s.phase[tx].Store((epoch + 1) << 2) // fresh epoch, idle
	s.resetTx(tx)
}

// NumShards implements ConcurrentScheduler.
func (s *ConcurrentOCC) NumShards() int { return s.shards }

// ShardOf implements ConcurrentScheduler.
//
//optcc:hotpath
func (s *ConcurrentOCC) ShardOf(v core.Var) int { return shardOfVar(v, s.shards) }
