package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"optcc/internal/core"
)

// FsyncPolicy is when the disk backend forces its log to stable storage.
type FsyncPolicy int

const (
	// FsyncGroup (the default) defers the fsync to GroupSync, which the
	// GroupCommitter invokes once per drained group — one fsync covers
	// every commit record appended since the last sync, the classic group
	// commit amortization. A group of one degenerates to FsyncAlways.
	FsyncGroup FsyncPolicy = iota
	// FsyncAlways syncs inside every Commit: each transaction is durable
	// before its commit returns, at one fsync per transaction.
	FsyncAlways
	// FsyncNever leaves flushing to the OS; a clean Close still syncs.
	// Commits can be lost on a crash, but never torn: recovery still
	// admits only whole checksummed records.
	FsyncNever
)

// ParseFsyncPolicy maps the CLI spelling of a policy to its value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "group":
		return FsyncGroup, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (known: always, group, never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "group"
	}
}

// GroupSyncer is the durability hook the GroupCommitter drives: after
// committing a group on the backend, it calls GroupSync once, making the
// whole group durable with a single fsync. A backend without the method is
// memory-only and the call is skipped.
type GroupSyncer interface {
	// GroupSync forces everything appended so far to stable storage. An
	// error means the group's durability is unknown — the committer
	// reports it for every member via OnFail.
	GroupSync() error
}

// DurabilityStats are the durable backend's counters, surfaced into
// sim.Metrics (Fsyncs, WALBytes, RecoveryNs, checkpoint counters) and the
// E13/E14 tables.
type DurabilityStats struct {
	// Fsyncs counts successful syncs of the log.
	Fsyncs int64
	// WALBytes counts bytes appended to the log.
	WALBytes int64
	// WALTruncated counts torn or corrupt log tails recovery discarded
	// (at most one per OpenDisk, since scanning stops at the first).
	WALTruncated int64
	// SyncFailures counts fsyncs that returned an error.
	SyncFailures int64
	// RecoveryNs is the wall time of the last OpenDisk replay.
	RecoveryNs int64
	// RecoveryBytes counts the checkpoint + log bytes the last OpenDisk
	// actually replayed — with checkpointing this is log-since-checkpoint,
	// not log-since-birth.
	RecoveryBytes int64
	// Checkpoints counts completed fuzzy checkpoints (checkpoint.go).
	Checkpoints int64
	// CheckpointFailures counts failed checkpoint attempts (each retried
	// with backoff until CheckpointerOff).
	CheckpointFailures int64
	// CheckpointBytes counts bytes written to checkpoint files.
	CheckpointBytes int64
	// SegmentsRetired counts sealed segments unlinked behind a durable
	// checkpoint marker.
	SegmentsRetired int64
	// CheckpointerOff is the graceful-degradation health flag: true once
	// persistent checkpoint failures disabled the checkpointer. The commit
	// path is unaffected; the log simply stops being retired.
	CheckpointerOff bool
}

// DurableBackend is the optional durability extension of Backend: a store
// that persists committed transactions and can account for it. Implemented
// by *Disk.
type DurableBackend interface {
	Backend
	GroupSyncer
	// Err returns the sticky durability error, if any: once an append or
	// sync fails the store is poisoned — every subsequent ApplyStep and
	// GroupSync fails — because the log can no longer be trusted to match
	// memory. The runtime surfaces it as the run error.
	Err() error
	// DurabilityStats reports the durability counters.
	DurabilityStats() DurabilityStats
}

// diskCtx is a transaction's execution context on the disk backend.
type diskCtx struct {
	locals []core.Value
	writes []walWrite // the deferred write set, in order
}

// Disk is the durable backend: a log-structured store whose only on-disk
// structure is the log itself — numbered append-only segment files of
// checksummed records (wal.go) — plus an in-memory table rebuilt from the
// log on open (recovery.go). There is no separate data store to keep
// consistent with the WAL; the committed prefix of the log IS the
// database, which is what makes crash recovery a pure replay.
//
// Execution is write-buffered: Put only accumulates in the transaction's
// write set; readers see their own writes, everyone else sees committed
// state. Commit appends one commit record carrying the write set and
// applies it atomically; Rollback discards the buffer without touching the
// log. An uncommitted write can therefore never reach the log, so the log
// is redo-only and recovery never undoes anything — which is also what
// makes non-strict schedulers (TO/OCC/SGT/mv) recoverable on this backend.
//
// Concurrency: in-memory operations and log appends serialize on one
// mutex; the fsync behind GroupSync runs OFF that mutex (serialized by its
// own syncMu), so execution — appends included — proceeds while a group's
// fsync is in flight. That is what lets commit groups form: commits that
// arrive during a lane's fsync pile up and are covered by one later sync.
// FsyncAlways deliberately keeps its per-commit sync under the mutex — the
// committing transaction must be durable before Commit returns, and paying
// that latency inline is exactly the cost the policy exists to measure.
type Disk struct {
	fs       FS
	dir      string
	policy   FsyncPolicy
	segBytes int64

	// ckptMu serializes whole checkpoints: the background loop and explicit
	// Checkpoint calls never interleave their capture/write/retire phases.
	// Lock order: ckptMu before syncMu before mu.
	ckptMu sync.Mutex

	// syncMu serializes the off-mutex fsyncs of GroupSync and excludes them
	// from checkpoint retirement (which closes sealed handles under it).
	// Lock order: syncMu before mu, never the reverse (appendLocked runs
	// under mu and must not touch syncMu).
	syncMu sync.Mutex

	mu     sync.Mutex
	table  core.DB
	ctx    map[int]*diskCtx
	enc    walEncoder
	seq    int         // active segment number
	active File        // active segment, nil before Reset/OpenDisk
	sealed []sealedSeg // rolled segments, kept open until Close or
	// retirement (a concurrent GroupSync may hold a captured handle
	// mid-fsync; closing it under the roll would race the sync — retirement
	// closes them under syncMu, which excludes any in-flight group fsync)
	activeBytes int64    // bytes appended to the active segment
	dirty       bool     // appended since the last successful sync
	err         error    // sticky durability error
	lock        *os.File // exclusive data-dir lock (flock), nil once released

	// Checkpointer state (checkpoint.go), all under mu.
	ckptThresh  int64 // WAL bytes between checkpoints (0 = no background loop)
	sinceCkpt   int64 // bytes appended since the last checkpoint capture
	ckptSeq     int   // last checkpoint file number written
	ckptGen     int64 // bumped by Reset; abandons in-flight checkpoints
	ckptOff     bool  // disabled after persistent failures (health flag)
	ckptRunning bool  // background loop alive; cleared by its every exit
	ckptStopped bool  // stopCheckpointer called; Reset must not respawn
	ckptStop    chan struct{}
	ckptKick    chan struct{}
	ckptWG      sync.WaitGroup
	ckptOnce    sync.Once // stops the background loop exactly once

	fsyncs        atomic.Int64
	walBytes      atomic.Int64
	walTruncated  atomic.Int64
	syncFailures  atomic.Int64
	recoveryNs    atomic.Int64
	recoveryBytes atomic.Int64
	checkpoints   atomic.Int64
	ckptFailures  atomic.Int64
	ckptBytes     atomic.Int64
	segsRetired   atomic.Int64
	reads         atomic.Int64
	writes        atomic.Int64
	rollbacks     atomic.Int64
}

// sealedSeg is a rolled segment kept open until Close or retirement.
type sealedSeg struct {
	seq int
	f   File
}

var _ DurableBackend = (*Disk)(nil)

// defaultSegmentBytes seals the active segment once it exceeds 1 MiB.
const defaultSegmentBytes = 1 << 20

// NewDisk builds a disk backend in cfg.Dir (a fresh temporary directory
// when empty). The store is unusable until Reset loads an initial database
// — use OpenDisk to recover existing state instead. cfg.FS defaults to the
// real filesystem; tests plug in an ErrFS.
func NewDisk(cfg Config) (*Disk, error) {
	fs := cfg.FS
	if fs == nil {
		fs = OSFS{}
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "optcc-disk-")
		if err != nil {
			return nil, fmt.Errorf("storage: disk temp dir: %w", err)
		}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("storage: disk dir %s: %w", dir, err)
	}
	// Double-open protection: two live writers on one WAL is silent
	// corruption, so the data dir is guarded by an exclusive flock taken
	// for the store's lifetime. Released by Close — and by the sticky
	// error that poisons a store (poisonLocked), since a poisoned store
	// never writes the log again, exactly like the dead process whose lock
	// the kernel would release.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	segBytes := int64(cfg.SegmentBytes)
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	d := &Disk{
		fs:         fs,
		dir:        dir,
		policy:     cfg.Fsync,
		segBytes:   segBytes,
		lock:       lock,
		ckptThresh: int64(cfg.CheckpointBytes),
		ckptStop:   make(chan struct{}),
		ckptKick:   make(chan struct{}, 1),
		table:      make(core.DB),
		ctx:        make(map[int]*diskCtx),
	}
	if d.ckptThresh > 0 {
		d.ckptRunning = true
		d.ckptWG.Add(1)
		go d.checkpointLoop()
	}
	return d, nil
}

// Name implements Backend.
func (d *Disk) Name() string { return "disk" }

// Dir returns the backing directory.
func (d *Disk) Dir() string { return d.dir }

// segName formats segment file names so lexicographic order is replay
// order.
func segName(seq int) string { return fmt.Sprintf("seg-%08d.wal", seq) }

// poisonLocked records the sticky durability error (first one wins) and
// releases the data-dir lock: a poisoned store never writes the log again
// — every subsequent append, sync, checkpoint and retirement refuses — so
// giving up the exclusive lock mirrors the dead process whose flock the
// kernel releases, and lets a fresh OpenDisk recover the directory.
func (d *Disk) poisonLocked(err error) {
	if d.err == nil {
		d.err = err
	}
	if d.lock != nil {
		d.lock.Close()
		d.lock = nil
	}
}

// Reset implements Backend: discard every segment, load init as the new
// database, and persist it as a snapshot record opening a fresh log. The
// snapshot is synced before Reset returns so the baseline itself is
// durable.
func (d *Disk) Reset(init core.DB) {
	d.mu.Lock()
	d.resetLocked(init)
	// A degraded run leaves the background loop dead (sticky store error or
	// persistent checkpoint failures, checkpoint.go) — and resetLocked just
	// cleared both the sticky error and the CheckpointerOff flag, so the
	// healthy report must come with an actual checkpointer behind it.
	// Respawn unless the loop is still alive, the store was stopped for
	// good (Close), or the reset itself failed. The decision and the
	// running/WG bookkeeping happen under mu; the spawn itself must not
	// (the goroutine takes ckptMu/syncMu/mu in its own time).
	respawn := d.ckptThresh > 0 && !d.ckptRunning && !d.ckptStopped && d.err == nil
	if respawn {
		d.ckptRunning = true
		d.ckptWG.Add(1)
	}
	d.mu.Unlock()
	if respawn {
		go d.checkpointLoop()
	}
}

// resetLocked is Reset's body, under d.mu.
func (d *Disk) resetLocked(init core.DB) {
	d.closeSegmentsLocked()
	names, err := d.fs.List(d.dir)
	if err != nil {
		d.poisonLocked(err)
		return
	}
	for _, n := range names {
		if n == lockFileName {
			continue // unlinking our own flock would let a second writer in
		}
		// A file gone since the List is not a fault: an in-flight
		// checkpoint of the old incarnation renames its tmp file without
		// d.mu (and removes its result itself once it sees the reset).
		if err := d.fs.Remove(segPath(d.dir, n)); err != nil && !errors.Is(err, os.ErrNotExist) {
			d.poisonLocked(err)
			return
		}
	}
	d.table = make(core.DB, len(init))
	for v, val := range init {
		d.table[v] = val
	}
	d.ctx = make(map[int]*diskCtx)
	d.err = nil
	d.seq = 1
	d.activeBytes = 0
	d.dirty = false
	d.ckptGen++ // abandon any in-flight checkpoint of the old incarnation
	d.ckptSeq = 0
	d.sinceCkpt = 0
	d.ckptOff = false
	d.fsyncs.Store(0)
	d.walBytes.Store(0)
	d.syncFailures.Store(0)
	d.checkpoints.Store(0)
	d.ckptFailures.Store(0)
	d.ckptBytes.Store(0)
	d.segsRetired.Store(0)
	d.reads.Store(0)
	d.writes.Store(0)
	d.rollbacks.Store(0)
	// WALTruncated and RecoveryNs survive Reset: they describe the open
	// that produced this store, which a Reset does not re-do.
	f, err := d.fs.Create(segPath(d.dir, segName(d.seq)))
	if err != nil {
		d.poisonLocked(err)
		return
	}
	d.active = f
	if err := d.appendLocked(d.enc.encodeSnapshot(init)); err != nil {
		return
	}
	d.syncLocked()
}

// appendLocked writes one framed record to the active segment, rolling to
// a new segment first when the active one is full. On failure the error is
// sticky: memory was not modified by the caller yet (callers append before
// applying), so the log remains the truth.
func (d *Disk) appendLocked(frame []byte) error {
	if d.err != nil {
		return d.err
	}
	if d.active == nil {
		d.err = fmt.Errorf("storage: disk backend used before Reset/OpenDisk")
		return d.err
	}
	if d.activeBytes >= d.segBytes {
		// Seal the active segment: sync it so only the newest segment can
		// ever hold a torn tail, then start the next one. The sealed file
		// stays open until Close or checkpoint retirement — a concurrent
		// GroupSync may be fsyncing a captured handle to it right now.
		if err := d.syncLocked(); err != nil {
			return err
		}
		d.sealed = append(d.sealed, sealedSeg{seq: d.seq, f: d.active})
		d.seq++
		f, err := d.fs.Create(segPath(d.dir, segName(d.seq)))
		if err != nil {
			d.poisonLocked(err)
			return err
		}
		d.active = f
		d.activeBytes = 0
	}
	n, err := d.active.Write(frame)
	d.walBytes.Add(int64(n))
	d.activeBytes += int64(n)
	if n > 0 {
		d.dirty = true
	}
	if err != nil {
		d.poisonLocked(err)
		return err
	}
	d.sinceCkpt += int64(n)
	if d.ckptThresh > 0 && d.sinceCkpt >= d.ckptThresh && !d.ckptOff {
		select { // wake the checkpointer; a pending kick already covers us
		case d.ckptKick <- struct{}{}:
		default:
		}
	}
	return nil
}

// syncLocked forces the active segment to stable storage if anything was
// appended since the last sync.
func (d *Disk) syncLocked() error {
	if d.err != nil {
		return d.err
	}
	if !d.dirty || d.active == nil {
		return nil
	}
	if err := d.active.Sync(); err != nil {
		d.syncFailures.Add(1)
		d.poisonLocked(err)
		return err
	}
	d.dirty = false
	d.fsyncs.Add(1)
	return nil
}

// ctxOfLocked returns tx's context, creating it on first use.
func (d *Disk) ctxOfLocked(tx int) *diskCtx {
	c := d.ctx[tx]
	if c == nil {
		c = &diskCtx{}
		d.ctx[tx] = c
	}
	return c
}

// getLocked reads v for tx: its own buffered write if any, else the table.
func (d *Disk) getLocked(c *diskCtx, v core.Var) core.Value {
	d.reads.Add(1)
	if c != nil {
		for i := len(c.writes) - 1; i >= 0; i-- {
			if c.writes[i].v == v {
				return c.writes[i].val
			}
		}
	}
	return d.table[v]
}

// putLocked buffers scalar as v in the transaction's write set; nothing
// reaches the table or the log before Commit.
func (d *Disk) putLocked(c *diskCtx, v core.Var, scalar core.Value) {
	d.writes.Add(1)
	c.writes = append(c.writes, walWrite{v: v, val: scalar})
}

// Get implements Backend.
func (d *Disk) Get(tx int, v core.Var) core.Value {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.getLocked(d.ctx[tx], v)
}

// Put implements Backend.
func (d *Disk) Put(tx int, v core.Var, scalar core.Value) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.putLocked(d.ctxOfLocked(tx), v, scalar)
}

// Scan implements Backend.
func (d *Disk) Scan(fn func(v core.Var, scalar core.Value) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for v, val := range d.table {
		if !fn(v, val) {
			return
		}
	}
}

// ApplyStep implements Backend with the paper's step semantics (see
// Backend); a sticky durability error fails every subsequent step, which
// is how a poisoned store surfaces as the run error.
func (d *Disk) ApplyStep(tx int, step core.Step) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	c := d.ctxOfLocked(tx)
	c.locals = append(c.locals, d.getLocked(c, step.Var))
	if step.Kind == core.Read {
		return nil
	}
	if step.Fn == nil {
		return fmt.Errorf("storage: step on %s has no interpretation", step.Var)
	}
	d.putLocked(c, step.Var, step.Fn(c.locals))
	return nil
}

// Commit implements Backend. The commit record is the durability point:
// it carries the write set, which is applied only after the append
// succeeded (atomic — a failed append commits nothing). Under FsyncAlways
// the log is synced before Commit returns; under FsyncGroup durability
// arrives at the next GroupSync.
func (d *Disk) Commit(tx int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.ctx[tx]
	delete(d.ctx, tx)
	if d.err != nil || c == nil || len(c.writes) == 0 {
		return // poisoned, or read-only: nothing to make durable
	}
	if err := d.appendLocked(d.enc.encodeCommit(tx, c.writes)); err != nil {
		return
	}
	for _, w := range c.writes {
		d.table[w.v] = w.val
	}
	if d.policy == FsyncAlways {
		d.syncLocked()
	}
}

// Rollback implements Backend: it discards the write set — nothing of the
// transaction reached the table or the log.
func (d *Disk) Rollback(tx int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.ctx[tx]; ok {
		delete(d.ctx, tx)
		d.rollbacks.Add(1)
	}
}

// State implements Backend.
func (d *Disk) State() core.DB {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(core.DB, len(d.table))
	for v, val := range d.table {
		out[v] = val
	}
	return out
}

// GroupSync implements GroupSyncer: under FsyncGroup (and FsyncAlways,
// where it is a clean-log no-op) force the log down; under FsyncNever do
// nothing. The GroupCommitter calls this once per drained group.
//
// The fsync itself runs outside d.mu, so appends — and with them the whole
// execution hot path — proceed while it is in flight; that concurrency is
// what grows commit groups. Correctness: every record of the drained group
// was appended before this call, so each sits either in a sealed segment
// (synced at roll time, under d.mu) or in the active segment captured
// here. A record appended after the capture re-marks the log dirty and is
// covered by the next sync; callers piggybacking on a sync that already
// covered their records see a clean log and skip the fsync entirely.
func (d *Disk) GroupSync() error {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	d.mu.Lock()
	if d.policy == FsyncNever || d.err != nil || !d.dirty || d.active == nil {
		err := d.err
		d.mu.Unlock()
		return err
	}
	f := d.active
	d.dirty = false
	d.mu.Unlock()
	if err := f.Sync(); err != nil {
		d.syncFailures.Add(1)
		d.mu.Lock()
		d.poisonLocked(err)
		d.mu.Unlock()
		return err
	}
	d.fsyncs.Add(1)
	return nil
}

// SyncCoalesces reports whether GroupSync performs real, amortizable
// fsyncs — true only under FsyncGroup (under FsyncAlways every commit
// already synced inline; under FsyncNever there is nothing to sync). The
// GroupCommitter uses it to decide whether giving runnable peers a chance
// to join a group before sealing it can pay for itself. The policy is
// immutable after construction, so no lock is needed.
func (d *Disk) SyncCoalesces() bool { return d.policy == FsyncGroup }

// Err returns the sticky durability error, if any.
func (d *Disk) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// closeSegmentsLocked closes the active segment and every sealed one.
func (d *Disk) closeSegmentsLocked() {
	if d.active != nil {
		d.active.Close()
		d.active = nil
	}
	for _, s := range d.sealed {
		s.f.Close()
	}
	d.sealed = nil
}

// Close syncs and closes every open segment and releases the data-dir
// lock. The store must be quiescent. The background checkpointer is
// stopped (and any in-flight checkpoint drained) before the segments go
// away, so Close never races a checkpoint.
func (d *Disk) Close() error {
	d.stopCheckpointer()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lock != nil {
		d.lock.Close()
		d.lock = nil
	}
	if d.active == nil {
		return d.err
	}
	err := d.syncLocked()
	d.closeSegmentsLocked()
	return err
}

// Destroy removes the backing directory. Test convenience.
func (d *Disk) Destroy() error {
	d.Close()
	return os.RemoveAll(d.dir)
}

// DurabilityStats implements DurableBackend.
func (d *Disk) DurabilityStats() DurabilityStats {
	d.mu.Lock()
	off := d.ckptOff
	d.mu.Unlock()
	return DurabilityStats{
		Fsyncs:             d.fsyncs.Load(),
		WALBytes:           d.walBytes.Load(),
		WALTruncated:       d.walTruncated.Load(),
		SyncFailures:       d.syncFailures.Load(),
		RecoveryNs:         d.recoveryNs.Load(),
		RecoveryBytes:      d.recoveryBytes.Load(),
		Checkpoints:        d.checkpoints.Load(),
		CheckpointFailures: d.ckptFailures.Load(),
		CheckpointBytes:    d.ckptBytes.Load(),
		SegmentsRetired:    d.segsRetired.Load(),
		CheckpointerOff:    off,
	}
}

// Stats reports the backend's physical work in the shared Stats shape
// (payload counters stay zero: the disk backend models scalars only).
func (d *Disk) Stats() Stats {
	return Stats{
		Reads:     d.reads.Load(),
		Writes:    d.writes.Load(),
		Rollbacks: d.rollbacks.Load(),
	}
}
