package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/storage"
)

// The probe times calls into the engine's public layers from outside: it
// wraps the scheduler (package online) and the backend (package storage)
// that sim.Run drives. Untraced it records only what the end-to-end
// latency needs — each transaction's first step request and its commit
// acknowledgement. Traced it also keeps one span per call, keyed by
// transaction id, for the per-layer ledger (ledger.go).
//
// A wrapper must implement exactly the optional interfaces its wrapped
// object implements: sim and storage.GroupCommitter pick their code paths
// by type assertion (online.ConcurrentScheduler selects the sharded
// runtime, online.SnapshotSource plus storage.SnapshotBackend the read-only
// fast path, storage.GroupSyncer the group fsync), so a wrapper that
// gained or lost one would measure a different engine.

// spanKind names the layer call a span covers.
type spanKind uint8

const (
	spanTry      spanKind = iota // online Try / TryBatch
	spanAbort                    // online Abort
	spanCommit                   // online Commit (lock release, after the ack)
	spanApply                    // storage ApplyStep
	spanBeCommit                 // storage Commit
	spanRollback                 // storage Rollback
	spanParked                   // a Delay decision until the request's next call
	spanDurable                  // storage Commit return until the covering GroupSync return
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"online.try", "online.abort", "online.commit",
	"storage.apply", "storage.commit", "storage.rollback", "sim.parked", "storage.durable_lag"}

// span is one timed call on behalf of one transaction. Times are
// nanoseconds since the round's base time. A TryBatch call gives every
// transaction in the batch the whole batch span; n is the batch size.
type span struct {
	start, end int64
	tx         int32
	n          int32
	kind       spanKind
	dec        online.Decision
}

// spanShards spreads span appends over independent mutexes so concurrent
// dispatch loops, users and commit lanes rarely contend.
const spanShards = 64

type spanBuf struct {
	mu    sync.Mutex
	spans []span
	_     [40]byte // keep neighbouring shards off one cache line
}

// reader is one snapshot-served read-only transaction, seen through its
// pinned slot: SnapshotAcquire entry to SnapshotRelease return.
type reader struct {
	start, end int64
	storageNs  int64 // time inside acquire, reads and release
}

// slotRec is one snapshot pin slot's record. A slot belongs to one user
// goroutine for the whole run, so its fields need no lock.
type slotRec struct {
	start   int64
	inStore int64
	readers []reader
	readNs  []int64  // traced: SnapshotRead durations
	_       [32]byte // keep neighbouring slots' users off one cache line
}

// pend is a durable commit whose Commit returned and whose covering
// GroupSync has not returned yet.
type pend struct {
	tx  int
	seq int64
	at  int64
}

// recorder collects one round's timings.
type recorder struct {
	base  time.Time
	trace bool

	first []int64 // per tx: first Try entry (0 = not yet requested)
	ack   []int64 // per tx: commit acknowledgement (0 = none)
	// parkedAt is, per tx, the end of the Try that delayed its pending
	// request (0 = not parked); the tx's next call closes a parked span.
	parkedAt []int64

	slots []slotRec

	resetNs int64 // duration of Backend.Reset (the initial load)

	pendMu  sync.Mutex
	pending []pend
	seq     int64

	spans [spanShards]spanBuf

	syncMu sync.Mutex
	syncNs []int64 // traced: GroupSync durations
}

// newRecorder sizes a recorder for txs transactions run by users clients on
// a backend with slots snapshot pins.
func newRecorder(base time.Time, txs, users, slots int, trace bool) *recorder {
	r := &recorder{
		base:     base,
		trace:    trace,
		first:    make([]int64, txs),
		ack:      make([]int64, txs),
		parkedAt: make([]int64, txs),
		slots:    make([]slotRec, slots),
	}
	perUser := txs/max(users, 1) + 1
	for i := 0; i < users && i < slots; i++ {
		r.slots[i].readers = make([]reader, 0, perUser)
	}
	if trace {
		for i := range r.spans {
			r.spans[i].spans = make([]span, 0, 8*txs/spanShards+16)
		}
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// enter is called at the start of every traced call for tx: it closes the
// parked span left by an earlier Delay.
func (r *recorder) enter(tx int) int64 { return r.enterAt(tx, r.now()) }

func (r *recorder) enterAt(tx int, t int64) int64 {
	if p := r.parkedAt[tx]; p != 0 {
		r.parkedAt[tx] = 0
		r.add(span{start: p, end: t, tx: int32(tx), kind: spanParked})
	}
	return t
}

func (r *recorder) add(s span) {
	b := &r.spans[int(s.tx)%spanShards]
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// requested marks tx's first step request.
func (r *recorder) requested(tx int, t int64) {
	if r.first[tx] == 0 {
		r.first[tx] = t
	}
}

// allSpans returns every recorded span (valid once the round has ended).
func (r *recorder) allSpans() []span {
	var out []span
	for i := range r.spans {
		out = append(out, r.spans[i].spans...)
	}
	return out
}

// schedProbe wraps a plain online.Scheduler; concProbe and mvProbe add the
// concurrent and snapshot-source extensions. wrapSched picks the one whose
// interface set matches the wrapped scheduler's.
type schedProbe struct {
	inner online.Scheduler
	rec   *recorder
}

type concProbe struct {
	*schedProbe
	cs online.ConcurrentScheduler
}

type mvProbe struct {
	*concProbe
	src online.SnapshotSource
}

func wrapSched(s online.Scheduler, rec *recorder) (online.Scheduler, error) {
	p := &schedProbe{inner: s, rec: rec}
	cs, concurrent := s.(online.ConcurrentScheduler)
	_, batch := s.(online.BatchTrier)
	src, snap := s.(online.SnapshotSource)
	switch {
	case !concurrent && !batch && !snap:
		return p, nil
	case concurrent && batch && !snap:
		return &concProbe{p, cs}, nil
	case concurrent && batch && snap:
		return &mvProbe{&concProbe{p, cs}, src}, nil
	}
	return nil, fmt.Errorf("probe: no wrapper for scheduler %s (concurrent=%v batch=%v snapshot=%v)",
		s.Name(), concurrent, batch, snap)
}

func (p *schedProbe) Name() string                   { return p.inner.Name() }
func (p *schedProbe) Begin(sys *core.System)         { p.inner.Begin(sys) }
func (p *schedProbe) Victim(stuck []int) (int, bool) { return p.inner.Victim(stuck) }
func (p *schedProbe) Wounded() []int                 { return p.inner.Wounded() }

func (p *schedProbe) Try(id core.StepID) online.Decision {
	r := p.rec
	if !r.trace {
		if r.first[id.Tx] == 0 {
			r.first[id.Tx] = r.now()
		}
		return p.inner.Try(id)
	}
	start := r.enter(id.Tx)
	r.requested(id.Tx, start)
	d := p.inner.Try(id)
	end := r.now()
	r.add(span{start: start, end: end, tx: int32(id.Tx), n: 1, kind: spanTry, dec: d})
	if d == online.Delay {
		r.parkedAt[id.Tx] = end
	}
	return d
}

func (p *schedProbe) Commit(tx int) {
	if !p.rec.trace {
		p.inner.Commit(tx)
		return
	}
	start := p.rec.enter(tx)
	p.inner.Commit(tx)
	p.rec.add(span{start: start, end: p.rec.now(), tx: int32(tx), kind: spanCommit})
}

func (p *schedProbe) Abort(tx int) {
	if !p.rec.trace {
		p.inner.Abort(tx)
		return
	}
	start := p.rec.enter(tx)
	p.inner.Abort(tx)
	p.rec.add(span{start: start, end: p.rec.now(), tx: int32(tx), kind: spanAbort})
}

func (p *concProbe) NumShards() int         { return p.cs.NumShards() }
func (p *concProbe) ShardOf(v core.Var) int { return p.cs.ShardOf(v) }
func (p *mvProbe) ReadOnlySnapshots() bool  { return p.src.ReadOnlySnapshots() }

// TryBatch decides through online.TryBatch on the wrapped scheduler, so a
// native batch stays native.
func (p *concProbe) TryBatch(ids []core.StepID) []online.Decision {
	r := p.rec
	if !r.trace {
		for _, id := range ids {
			if r.first[id.Tx] == 0 {
				r.first[id.Tx] = r.now()
			}
		}
		return online.TryBatch(p.cs, ids)
	}
	start := r.now()
	for _, id := range ids {
		r.enterAt(id.Tx, start)
		r.requested(id.Tx, start)
	}
	ds := online.TryBatch(p.cs, ids)
	end := r.now()
	for i, id := range ids {
		r.add(span{start: start, end: end, tx: int32(id.Tx), n: int32(len(ids)), kind: spanTry, dec: ds[i]})
		if ds[i] == online.Delay {
			r.parkedAt[id.Tx] = end
		}
	}
	return ds
}

// beProbe wraps a plain storage.Backend; snapProbe adds
// storage.SnapshotBackend and durableProbe storage.DurableBackend plus the
// SyncCoalesces hint. wrapBackend picks the one whose interface set
// matches the wrapped backend's.
type beProbe struct {
	inner storage.Backend
	rec   *recorder
}

type snapProbe struct {
	*beProbe
	sb storage.SnapshotBackend
}

type durableProbe struct {
	*beProbe
	db storage.DurableBackend
	co syncCoalescer
}

type syncCoalescer interface{ SyncCoalesces() bool }

func wrapBackend(b storage.Backend, rec *recorder) (storage.Backend, error) {
	p := &beProbe{inner: b, rec: rec}
	sb, snap := b.(storage.SnapshotBackend)
	_, syncer := b.(storage.GroupSyncer)
	db, durable := b.(storage.DurableBackend)
	co, coalesces := b.(syncCoalescer)
	switch {
	case !snap && !syncer && !durable && !coalesces:
		return p, nil
	case snap && !syncer && !durable && !coalesces:
		return &snapProbe{p, sb}, nil
	case !snap && durable && coalesces:
		return &durableProbe{p, db, co}, nil
	}
	return nil, fmt.Errorf("probe: no wrapper for backend %s (snapshot=%v syncer=%v durable=%v coalesces=%v)",
		b.Name(), snap, syncer, durable, coalesces)
}

func (p *beProbe) Name() string                            { return p.inner.Name() }
func (p *beProbe) Get(tx int, v core.Var) core.Value       { return p.inner.Get(tx, v) }
func (p *beProbe) Put(tx int, v core.Var, s core.Value)    { p.inner.Put(tx, v, s) }
func (p *beProbe) Scan(fn func(core.Var, core.Value) bool) { p.inner.Scan(fn) }
func (p *beProbe) State() core.DB                          { return p.inner.State() }

func (p *beProbe) Reset(init core.DB) {
	start := time.Now()
	p.inner.Reset(init)
	p.rec.resetNs = int64(time.Since(start))
}

func (p *beProbe) ApplyStep(tx int, step core.Step) error {
	if !p.rec.trace {
		return p.inner.ApplyStep(tx, step)
	}
	start := p.rec.enter(tx)
	err := p.inner.ApplyStep(tx, step)
	p.rec.add(span{start: start, end: p.rec.now(), tx: int32(tx), kind: spanApply})
	return err
}

// Commit acknowledges tx when the backend call returns; a durable backend
// overrides it, acknowledging at the covering GroupSync instead.
func (p *beProbe) Commit(tx int) {
	r := p.rec
	if !r.trace {
		p.inner.Commit(tx)
		r.ack[tx] = r.now()
		return
	}
	start := r.enter(tx)
	p.inner.Commit(tx)
	end := r.now()
	r.add(span{start: start, end: end, tx: int32(tx), kind: spanBeCommit})
	r.ack[tx] = end
}

func (p *beProbe) Rollback(tx int) {
	if !p.rec.trace {
		p.inner.Rollback(tx)
		return
	}
	start := p.rec.enter(tx)
	p.inner.Rollback(tx)
	p.rec.add(span{start: start, end: p.rec.now(), tx: int32(tx), kind: spanRollback})
}

func (p *snapProbe) SnapshotSlots() int   { return p.sb.SnapshotSlots() }
func (p *snapProbe) SnapshotReads() int64 { return p.sb.SnapshotReads() }
func (p *snapProbe) VersionsGCed() int64  { return p.sb.VersionsGCed() }

func (p *snapProbe) SnapshotAcquire(slot int) int64 {
	s := &p.rec.slots[slot]
	s.start = p.rec.now()
	snap := p.sb.SnapshotAcquire(slot)
	if p.rec.trace {
		s.inStore = p.rec.now() - s.start
	}
	return snap
}

func (p *snapProbe) SnapshotRead(slot int, v core.Var, snap int64) core.Value {
	if !p.rec.trace {
		return p.sb.SnapshotRead(slot, v, snap)
	}
	s := &p.rec.slots[slot]
	start := p.rec.now()
	val := p.sb.SnapshotRead(slot, v, snap)
	d := p.rec.now() - start
	s.inStore += d
	s.readNs = append(s.readNs, d)
	return val
}

func (p *snapProbe) SnapshotRelease(slot int) {
	s := &p.rec.slots[slot]
	start := p.rec.now()
	p.sb.SnapshotRelease(slot)
	end := p.rec.now()
	s.inStore += end - start
	s.readers = append(s.readers, reader{start: s.start, end: end, storageNs: s.inStore})
	s.inStore = 0
}

func (p *durableProbe) Err() error                               { return p.db.Err() }
func (p *durableProbe) DurabilityStats() storage.DurabilityStats { return p.db.DurabilityStats() }
func (p *durableProbe) SyncCoalesces() bool                      { return p.co.SyncCoalesces() }

// Commit queues tx for acknowledgement by the first GroupSync that starts
// after this call returns: that sync's capture of the log follows the
// commit record's append, so its return makes the commit durable.
func (p *durableProbe) Commit(tx int) {
	r := p.rec
	var start int64
	if r.trace {
		start = r.enter(tx)
	}
	p.db.Commit(tx)
	end := r.now()
	if r.trace {
		r.add(span{start: start, end: end, tx: int32(tx), kind: spanBeCommit})
	}
	r.pendMu.Lock()
	r.seq++
	r.pending = append(r.pending, pend{tx: tx, seq: r.seq, at: end})
	r.pendMu.Unlock()
}

// GroupSync acknowledges every commit that returned before the call began.
func (p *durableProbe) GroupSync() error {
	r := p.rec
	r.pendMu.Lock()
	covers := r.seq
	r.pendMu.Unlock()
	start := r.now()
	err := p.db.GroupSync()
	end := r.now()
	if err != nil {
		return err
	}
	r.pendMu.Lock()
	k := 0
	for k < len(r.pending) && r.pending[k].seq <= covers {
		pd := r.pending[k]
		r.ack[pd.tx] = end
		if r.trace {
			r.add(span{start: pd.at, end: end, tx: int32(pd.tx), kind: spanDurable})
		}
		k++
	}
	r.pending = append(r.pending[:0], r.pending[k:]...)
	r.pendMu.Unlock()
	if r.trace {
		r.syncMu.Lock()
		r.syncNs = append(r.syncNs, end-start)
		r.syncMu.Unlock()
	}
	return nil
}

// fsProbe times the disk backend's filesystem calls (storage.Config.FS
// over storage.OSFS): every file the backend creates or appends to counts
// its writes and times its syncs.
type fsProbe struct {
	storage.FS
	writes, bytes atomic.Int64
	mu            sync.Mutex
	syncNs        []int64
}

type fileProbe struct {
	storage.File
	fs *fsProbe
}

func (f *fsProbe) Create(name string) (storage.File, error) {
	h, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &fileProbe{h, f}, nil
}

func (f *fsProbe) Append(name string) (storage.File, error) {
	h, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &fileProbe{h, f}, nil
}

func (f *fileProbe) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *fileProbe) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(start))
	f.fs.mu.Lock()
	f.fs.syncNs = append(f.fs.syncNs, d)
	f.fs.mu.Unlock()
	return err
}
