package storage

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

// Record is one stored value: the paper's int64 scalar plus an opaque
// payload of configurable size, protected by a checksum. Records are
// immutable once stored — a write builds a fresh record (copy-on-write), so
// an undo-log entry holding the previous version restores it byte-identically
// and readers may checksum a record without holding anything.
type Record struct {
	// Scalar is the core.Value visible to step interpretations.
	Scalar core.Value
	// Payload is the opaque value body; reads checksum it, writes copy it.
	Payload []byte
	// Sum is the XOR checksum of Payload, verified on every read.
	Sum byte
}

// version is one link of a variable's version chain: an immutable Record
// stamped with the commit timestamps bounding its visibility. Chains are
// latest-first — a variable's chain head is its newest version and next
// walks toward older ones. Writers install a fresh head with CAS; nothing
// in a chain is ever mutated in place except the begin/end stamps (set once
// each, at commit) and the GC's unlink of an unreachable older suffix.
type version struct {
	rec Record
	// begin is the commit timestamp from which the version is visible
	// (0 for the initial load). While the writing transaction is
	// uncommitted it holds the negative transaction mark -(tx+1), which no
	// snapshot admits and only the writing transaction itself reads through.
	begin atomic.Int64
	// end is the commit timestamp of the superseding version, 0 while the
	// version is still current. A version is visible to snapshot s iff
	// 0 <= begin <= s and (end == 0 || end > s).
	end atomic.Int64
	// next is the immediately older version. The GC clears it (see
	// kvShard.collect) once the older suffix is invisible to every pinned
	// snapshot, so superseded versions do not accumulate.
	next atomic.Pointer[version]
}

// uncommittedMark is the begin stamp of a version whose writing transaction
// has not committed: negative, so it compares below every snapshot.
//
//optcc:hotpath
func uncommittedMark(tx int) int64 { return -int64(tx) - 1 }

// chain is one variable's version list: just the CAS-installed head.
// Chains are created once per variable (at Reset for declared variables,
// through the extra map for stragglers) and never removed, so looking one
// up is a pure read of an immutable map.
type chain struct{ head atomic.Pointer[version] }

// Stats counts the physical work a backend performed since Reset.
type Stats struct {
	// Reads and Writes count record accesses through the transactional
	// Get/Put path.
	Reads, Writes int64
	// BytesRead and BytesWritten count payload bytes touched.
	BytesRead, BytesWritten int64
	// Rollbacks counts undo-log replays (aborted transactions).
	Rollbacks int64
	// SnapshotReads counts reads served through the lock-free snapshot
	// path (SnapshotRead), outside Reads.
	SnapshotReads int64
	// VersionsGCed counts superseded versions the garbage collector
	// unlinked once no snapshot could see them (their payloads return to
	// the freelists when Recycle is on).
	VersionsGCed int64
}

// Config parameterizes the in-memory KV backend.
type Config struct {
	// Shards is the number of map partitions; variables are placed with
	// lockmgr.ShardOfVar, the same partition function as the sharded lock
	// table and the dispatch loops, so storage, locks and dispatch always
	// agree on ownership (minimum 1).
	Shards int
	// ValueSize is the payload size in bytes for every record (0 keeps
	// records scalar-only). Sizer overrides it per variable when set.
	ValueSize int
	// Sizer, when non-nil, gives each variable its payload size; workloads
	// supply sizers (e.g. workload.UniformPayload) to model value-size skew.
	Sizer func(v core.Var) int
	// Recycle returns dead payload buffers to the per-shard size-classed
	// freelists: superseded versions are recycled by the GC once no pinned
	// snapshot can see them, and a Rollback recycles the dying write it
	// removes from the chain, so a warmed-up run's Put path allocates no
	// payload bytes at all.
	//
	// Aliasing rule (DESIGN.md "Memory discipline" and "Multiversion
	// storage"): Recycle is sound when every reader of a record is either
	// (a) covered by strict execution — no transaction reads or overwrites
	// a value written by an uncommitted transaction, as under serial and
	// the strict 2PL family — or (b) a snapshot reader holding a pin
	// (SnapshotAcquire), which the GC's minimum-active-snapshot horizon
	// respects. Under a non-strict scheduler (SGT-style, TO, OCC, MV) an
	// unpinned Get may still be checksumming a version when a concurrent
	// commit supersedes and collects it — leave Recycle off there, as the
	// runtime does.
	Recycle bool
	// SnapshotSlots is the number of concurrent snapshot pins the store
	// supports (0 = defaultSnapshotSlots). Each reader of the snapshot
	// path owns one slot; the runtime maps user goroutines onto slots and
	// falls back to the transactional path when it has more users than
	// slots.
	SnapshotSlots int

	// The fields below configure the durable disk backend (disk.go) and
	// are ignored by the in-memory KV.

	// Dir is the disk backend's directory of log segments ("" = a fresh
	// temporary directory).
	Dir string
	// Fsync is when the disk backend forces its log to stable storage
	// (default FsyncGroup: one fsync per group-commit drain).
	Fsync FsyncPolicy
	// SegmentBytes seals the active log segment past this size
	// (0 = 1 MiB).
	SegmentBytes int
	// CheckpointBytes arms the online fuzzy checkpointer (checkpoint.go):
	// once this many bytes have been appended to the WAL since the last
	// checkpoint, a background goroutine snapshots the store to a
	// checkpoint file, records a marker in the log and retires every
	// sealed segment behind the anchor, bounding the on-disk footprint and
	// recovery time of a long-running store. 0 (the default) disables the
	// background checkpointer; Disk.Checkpoint can still be called
	// explicitly.
	CheckpointBytes int
	// FS is the filesystem the disk backend writes through (nil = the
	// real one). Tests inject faults by supplying an ErrFS.
	FS FS
}

// defaultSnapshotSlots is the snapshot pin capacity when Config leaves it 0:
// comfortably above the experiments' largest user counts.
const defaultSnapshotSlots = 256

// retiredVer is a superseded version awaiting garbage collection: it may be
// collected — its older suffix unlinked and, with Recycle, its payload
// returned to the freelists — once every snapshot that could still see it
// (any snapshot older than at, the superseding commit's timestamp) has been
// released.
type retiredVer struct {
	ver  *version // the superseded version; at == ver.end
	succ *version // its superseder, whose next pointer the unlink clears
	at   int64    // the superseding commit timestamp
}

// kvShard is one map partition: its immutable variable→chain map, the
// shard's size-classed payload freelists, and the retired-version queue
// feeding them (sharding GC state with the data keeps collection contention
// as partitioned as the writes themselves).
type kvShard struct {
	data map[core.Var]*chain // immutable after Reset

	freeMu  sync.Mutex
	free    [numClasses][][]byte
	retired []retiredVer
}

// numClasses bounds the power-of-two size classes of the payload
// freelists: class c holds buffers of capacity 1<<c, up to 8 MiB. Larger
// payloads fall back to the allocator.
const numClasses = 24

// classFree caps each per-shard, per-class freelist so a burst of aborts
// cannot pin an unbounded amount of dead payload memory.
const classFree = 256

// classOf returns the size class whose buffers hold size bytes, or -1 when
// the size is out of the classed range.
//
//optcc:hotpath
func classOf(size int) int {
	if size <= 0 || size > 1<<(numClasses-1) {
		return -1
	}
	c := bits.Len(uint(size - 1))
	return c
}

// getBuf returns a payload buffer of the given size from the shard's
// freelist, or a fresh one with class-rounded capacity so it can be
// recycled later.
//
//optcc:hotpath
func (sh *kvShard) getBuf(size int) []byte {
	c := classOf(size)
	if c < 0 {
		//cclint:ignore hotpath out-of-class payloads (>8 MiB) fall back to the allocator by design
		return make([]byte, size)
	}
	sh.freeMu.Lock()
	if n := len(sh.free[c]); n > 0 {
		p := sh.free[c][n-1]
		sh.free[c][n-1] = nil
		sh.free[c] = sh.free[c][:n-1]
		sh.freeMu.Unlock()
		return p[:size]
	}
	sh.freeMu.Unlock()
	//cclint:ignore hotpath freelist miss is the warm-up path; steady state hits the freelist
	return make([]byte, size, 1<<c)
}

// putBuf returns a dead payload buffer to the shard's freelist. Buffers
// whose capacity is not an exact class size (or whose class is full) are
// dropped to the garbage collector.
//
//optcc:hotpath
//optcc:release
func (sh *kvShard) putBuf(p []byte) {
	sh.freeMu.Lock()
	sh.putBufLocked(p)
	sh.freeMu.Unlock()
}

// putBufLocked is putBuf for callers already holding freeMu.
//
//optcc:hotpath
//optcc:release
func (sh *kvShard) putBufLocked(p []byte) {
	if cap(p) == 0 {
		return
	}
	c := bits.Len(uint(cap(p)) - 1)
	if c >= numClasses || cap(p) != 1<<c {
		return
	}
	if len(sh.free[c]) < classFree {
		//cclint:ignore hotpath freelist append is bounded by classFree and reuses capacity after warm-up
		sh.free[c] = append(sh.free[c], p[:cap(p)])
	}
}

// retire queues a superseded version for collection once no snapshot can
// see it.
func (sh *kvShard) retire(ver, succ *version, at int64) {
	sh.freeMu.Lock()
	sh.retired = append(sh.retired, retiredVer{ver: ver, succ: succ, at: at})
	sh.freeMu.Unlock()
}

// collect garbage-collects the shard's retired versions that no snapshot
// can reach: every version superseded at or before minActive is invisible
// to all pinned snapshots (their timestamps are >= minActive) and to every
// future one (the published clock is >= minActive), so its older suffix is
// unlinked from the chain and its payload returns to the freelist when
// Recycle is on. The unlink is safe against concurrent readers: a walker
// only dereferences a version's next after rejecting it, and the superseder
// (begin == at <= minActive <= any pinned snapshot) is always accepted
// first — see DESIGN.md "Multiversion storage" for the full argument.
func (sh *kvShard) collect(kv *KV, minActive int64) {
	sh.freeMu.Lock()
	kept := sh.retired[:0]
	for _, r := range sh.retired {
		if r.at > minActive {
			kept = append(kept, r)
			continue
		}
		r.succ.next.Store(nil)
		if kv.cfg.Recycle {
			sh.putBufLocked(r.ver.rec.Payload)
		}
		kv.versionsGCed.Add(1)
	}
	for i := len(kept); i < len(sh.retired); i++ {
		sh.retired[i] = retiredVer{} // drop version refs
	}
	sh.retired = kept
	sh.freeMu.Unlock()
}

// txCtx is a transaction's execution context: the paper's local variables
// t_i1..t_ij and the undo log of installed versions.
type txCtx struct {
	locals []core.Value
	undo   []undoRec
}

// undoRec remembers one installed version and the head it displaced (nil:
// the variable was absent, so rollback empties the chain).
type undoRec struct {
	v    core.Var
	ver  *version
	prev *version
}

// readerSlot is one snapshot pin plus its reader's local counters, padded
// to a cache line so concurrent readers on adjacent slots do not
// false-share. ts == -1 means the slot is unpinned.
type readerSlot struct {
	ts    atomic.Int64
	reads atomic.Int64
	bytes atomic.Int64
	_     [40]byte
}

// KV is the sharded in-memory implementation of Backend: per-shard
// immutable variable→chain maps partitioned exactly like
// lockmgr.ShardedTable, timestamp-stamped version chains with CAS head
// install, per-transaction undo logs for abort rollback, and a pinned
// snapshot-read path that takes no lock of any kind. See the package
// comment for the concurrency contract and the replay invariant, and
// DESIGN.md "Multiversion storage" for visibility and GC safety.
type KV struct {
	cfg    Config
	shards []kvShard
	extra  sync.Map // core.Var → *chain, for undeclared variables only

	// commitSeq hands out commit timestamps; snapClock publishes them in
	// order once a commit's versions are fully stamped, so a snapshot at
	// snapClock never observes a half-stamped commit.
	commitSeq atomic.Int64
	snapClock atomic.Int64

	// slots are the snapshot pins; activePins counts pinned slots so the
	// GC's horizon scan is one atomic load when the snapshot path is idle.
	slots      []readerSlot
	activePins atomic.Int64

	ctxMu sync.Mutex
	ctx   map[int]*txCtx
	// ctxPool recycles transaction contexts (locals and undo slices keep
	// their capacity), so a warmed-up commit/restart cycle allocates no
	// per-transaction bookkeeping.
	ctxPool sync.Pool

	reads, writes, bytesRead, bytesWritten, rollbacks atomic.Int64
	versionsGCed                                      atomic.Int64
}

var _ Backend = (*KV)(nil)
var _ SnapshotBackend = (*KV)(nil)

// NewKV returns an empty sharded KV backend; call Reset to load state.
func NewKV(cfg Config) *KV {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.SnapshotSlots <= 0 {
		cfg.SnapshotSlots = defaultSnapshotSlots
	}
	kv := &KV{
		cfg:    cfg,
		shards: make([]kvShard, cfg.Shards),
		slots:  make([]readerSlot, cfg.SnapshotSlots),
		ctx:    map[int]*txCtx{},
	}
	for i := range kv.shards {
		kv.shards[i].data = map[core.Var]*chain{}
	}
	for i := range kv.slots {
		kv.slots[i].ts.Store(-1)
	}
	return kv
}

// Name implements Backend.
func (kv *KV) Name() string { return fmt.Sprintf("kv(%d)", len(kv.shards)) }

// NumShards returns the map partition count.
func (kv *KV) NumShards() int { return len(kv.shards) }

//optcc:hotpath
func (kv *KV) shard(v core.Var) *kvShard {
	return &kv.shards[lockmgr.ShardOfVar(v, len(kv.shards))]
}

func (kv *KV) sizeOf(v core.Var) int {
	if kv.cfg.Sizer != nil {
		return kv.cfg.Sizer(v)
	}
	return kv.cfg.ValueSize
}

// chainOf returns v's version chain with one immutable map lookup (the
// lock-free fast path for every variable declared at Reset). Undeclared
// variables fall back to the extra sync.Map; with create false a fully
// unknown variable returns nil.
//
//optcc:hotpath
func (kv *KV) chainOf(v core.Var, create bool) *chain {
	if ch, ok := kv.shard(v).data[v]; ok {
		return ch
	}
	//cclint:ignore hotpath undeclared-variable fallback; Reset declares every variable the experiments touch
	if e, ok := kv.extra.Load(v); ok {
		return e.(*chain)
	}
	if !create {
		return nil
	}
	//cclint:ignore hotpath undeclared-variable fallback; Reset declares every variable the experiments touch
	e, _ := kv.extra.LoadOrStore(v, &chain{})
	return e.(*chain)
}

// checksum is the XOR fold of a payload; recomputed on every read so a read
// touches every byte, the way a real engine's page checksum does.
//
//optcc:hotpath
func checksum(p []byte) byte {
	var s byte
	for _, b := range p {
		s ^= b
	}
	return s
}

// newVersion builds an immutable version stamped begin=mark: prev's payload
// is copied (or a fresh deterministic fill when prev is nil or resized),
// the scalar is stamped into the first 8 bytes, and the checksum is
// computed. The buffer comes from the shard freelist; a recycled buffer may
// hold stale bytes, so both branches overwrite all size bytes. The copy
// from prev is validated by the caller's CAS install: if prev was
// superseded (and possibly collected) mid-copy, the CAS fails and the
// garbage copy is discarded.
func (kv *KV) newVersion(sh *kvShard, size int, scalar core.Value, prev *version, mark int64) *version {
	p := sh.getBuf(size)
	if prev != nil && len(prev.rec.Payload) == size {
		copy(p, prev.rec.Payload)
	} else {
		for i := range p {
			p[i] = byte(i)
		}
	}
	u := uint64(scalar)
	for i := 0; i < 8 && i < len(p); i++ {
		p[i] = byte(u >> (8 * i))
	}
	ver := &version{rec: Record{Scalar: scalar, Payload: p, Sum: checksum(p)}}
	ver.begin.Store(mark)
	ver.next.Store(prev)
	return ver
}

// Reset implements Backend: drop everything and load init, one chain with
// one begin=0 version per variable with its configured payload size.
func (kv *KV) Reset(init core.DB) {
	perShard := len(init)/len(kv.shards) + 1
	for i := range kv.shards {
		sh := &kv.shards[i]
		sh.data = make(map[core.Var]*chain, perShard)
		sh.freeMu.Lock()
		for j := range sh.retired {
			sh.retired[j] = retiredVer{}
		}
		sh.retired = sh.retired[:0]
		sh.freeMu.Unlock()
	}
	kv.extra.Range(func(k, _ any) bool {
		kv.extra.Delete(k)
		return true
	})
	kv.ctxMu.Lock()
	kv.ctx = map[int]*txCtx{}
	kv.ctxMu.Unlock()
	kv.commitSeq.Store(0)
	kv.snapClock.Store(0)
	kv.activePins.Store(0)
	for i := range kv.slots {
		kv.slots[i].ts.Store(-1)
		kv.slots[i].reads.Store(0)
		kv.slots[i].bytes.Store(0)
	}
	kv.reads.Store(0)
	kv.writes.Store(0)
	kv.bytesRead.Store(0)
	kv.bytesWritten.Store(0)
	kv.rollbacks.Store(0)
	kv.versionsGCed.Store(0)
	for v, val := range init {
		sh := kv.shard(v)
		ver := kv.newVersion(sh, kv.sizeOf(v), val, nil, 0)
		ch := &chain{}
		ch.head.Store(ver)
		sh.data[v] = ch
	}
}

// ctxOf returns tx's execution context, drawing a recycled one from the
// pool on first use.
func (kv *KV) ctxOf(tx int) *txCtx {
	kv.ctxMu.Lock()
	defer kv.ctxMu.Unlock()
	c := kv.ctx[tx]
	if c == nil {
		if p, ok := kv.ctxPool.Get().(*txCtx); ok {
			c = p
		} else {
			c = &txCtx{}
		}
		kv.ctx[tx] = c
	}
	return c
}

// releaseCtx clears a finished context (dropping version references so the
// pool does not pin them) and returns it to the pool.
func (kv *KV) releaseCtx(c *txCtx) {
	c.locals = c.locals[:0]
	for i := range c.undo {
		c.undo[i] = undoRec{}
	}
	c.undo = c.undo[:0]
	kv.ctxPool.Put(c)
}

// Get implements Backend: walk tx's chain view lock-free and return the
// newest version that is either committed or tx's own uncommitted write
// (read-your-writes). Another transaction's uncommitted version is skipped
// without being checksummed, so a concurrent rollback recycling it never
// races a reader's checksum. The walk retries from a fresh head if a
// concurrent GC unlink cuts it short — possible only for unpinned readers
// racing a supersede, where any committed successor is an acceptable
// answer.
//
//optcc:hotpath
func (kv *KV) Get(tx int, v core.Var) core.Value {
	ch := kv.chainOf(v, false)
	if ch == nil {
		return 0
	}
	mark := uncommittedMark(tx)
	for attempt := 0; attempt < 4; attempt++ {
		for ver := ch.head.Load(); ver != nil; ver = ver.next.Load() {
			b := ver.begin.Load()
			if b < 0 && b != mark {
				continue // another transaction's uncommitted version
			}
			kv.reads.Add(1)
			kv.bytesRead.Add(int64(len(ver.rec.Payload)))
			if checksum(ver.rec.Payload) != ver.rec.Sum {
				//cclint:ignore hotpath corruption panic is the failure path; it never executes on a healthy run
				panic(fmt.Sprintf("storage: payload corruption on %s", v))
			}
			return ver.rec.Scalar
		}
		if ch.head.Load() == nil {
			break // variable genuinely absent
		}
	}
	return 0
}

// Put implements Backend: build the copy-on-write version outside any
// critical section and CAS-install it as the chain head, stamped with tx's
// uncommitted mark; the displaced head goes to tx's undo log. A lost
// install race (concurrent writers — non-strict schedulers only) recycles
// the speculative buffer and rebuilds against the new head.
func (kv *KV) Put(tx int, v core.Var, scalar core.Value) {
	ch := kv.chainOf(v, true)
	sh := kv.shard(v)
	size := kv.sizeOf(v)
	mark := uncommittedMark(tx)
	for {
		prev := ch.head.Load()
		ver := kv.newVersion(sh, size, scalar, prev, mark)
		if ch.head.CompareAndSwap(prev, ver) {
			kv.writes.Add(1)
			kv.bytesWritten.Add(int64(len(ver.rec.Payload)))
			c := kv.ctxOf(tx)
			c.undo = append(c.undo, undoRec{v: v, ver: ver, prev: prev})
			return
		}
		sh.putBuf(ver.rec.Payload)
	}
}

// Scan implements Backend: visit every chain head's scalar, shard by shard
// then the extra map, without taking any lock (the maps are immutable and
// heads are atomic). The view is not a consistent cut while writers are
// active; State after quiescence is.
func (kv *KV) Scan(fn func(v core.Var, scalar core.Value) bool) {
	for i := range kv.shards {
		for v, ch := range kv.shards[i].data {
			if ver := ch.head.Load(); ver != nil {
				if !fn(v, ver.rec.Scalar) {
					return
				}
			}
		}
	}
	kv.extra.Range(func(k, val any) bool {
		if ver := val.(*chain).head.Load(); ver != nil {
			return fn(k.(core.Var), ver.rec.Scalar)
		}
		return true
	})
}

// ApplyStep implements Backend with the paper's step semantics.
func (kv *KV) ApplyStep(tx int, step core.Step) error {
	c := kv.ctxOf(tx)
	val := kv.Get(tx, step.Var)
	c.locals = append(c.locals, val)
	if step.Kind == core.Read {
		return nil // write-back is the identity on t_ij
	}
	if step.Fn == nil {
		return fmt.Errorf("storage: step on %s has no interpretation", step.Var)
	}
	kv.Put(tx, step.Var, step.Fn(c.locals))
	return nil
}

// Commit implements Backend: stamp tx's installed versions with one fresh
// commit timestamp (begin on each new version, end on each displaced one),
// publish the timestamp in commit order — snapshots only admit timestamps
// whose commits are fully stamped — retire the displaced versions, and run
// the GC up to the minimum active snapshot. A transaction that wrote
// nothing takes no timestamp.
func (kv *KV) Commit(tx int) {
	kv.ctxMu.Lock()
	c := kv.ctx[tx]
	delete(kv.ctx, tx)
	kv.ctxMu.Unlock()
	if c == nil {
		return
	}
	if len(c.undo) > 0 {
		ts := kv.commitSeq.Add(1)
		for _, u := range c.undo {
			u.ver.begin.Store(ts)
			if u.prev != nil {
				u.prev.end.Store(ts)
				kv.shard(u.v).retire(u.prev, u.ver, ts)
			}
		}
		// Publish in commit order: a reader pinning snapClock == ts sees
		// every version of every commit up to ts fully stamped.
		for !kv.snapClock.CompareAndSwap(ts-1, ts) {
			runtime.Gosched()
		}
		min := kv.minActiveSnapshot()
		for _, u := range c.undo {
			if u.prev != nil {
				kv.shard(u.v).collect(kv, min)
			}
		}
	}
	kv.releaseCtx(c)
}

// Rollback implements Backend: replay tx's undo log in reverse, restoring
// each displaced chain head (byte-identical — versions are immutable), then
// drop the context so the restart begins with fresh locals. With Recycle
// on, a dying write still at its chain head — a version only this
// transaction could read, since its begin mark admits no snapshot and
// Get skips other transactions' uncommitted versions — returns its payload
// buffer to the shard freelist.
func (kv *KV) Rollback(tx int) {
	kv.ctxMu.Lock()
	c := kv.ctx[tx]
	delete(kv.ctx, tx)
	kv.ctxMu.Unlock()
	if c == nil {
		return
	}
	if len(c.undo) > 0 {
		kv.rollbacks.Add(1)
	}
	for i := len(c.undo) - 1; i >= 0; i-- {
		u := c.undo[i]
		ch := kv.chainOf(u.v, false)
		if ch == nil {
			continue
		}
		dying := ch.head.Load()
		ch.head.Store(u.prev)
		if kv.cfg.Recycle && dying == u.ver {
			kv.shard(u.v).putBuf(dying.rec.Payload)
		}
	}
	kv.releaseCtx(c)
}

// State implements Backend.
func (kv *KV) State() core.DB {
	db := core.DB{}
	kv.Scan(func(v core.Var, val core.Value) bool {
		db[v] = val
		return true
	})
	return db
}

// Snapshot deep-copies every chain head's record, for byte-level
// comparisons in tests and tools.
func (kv *KV) Snapshot() map[core.Var]Record {
	out := map[core.Var]Record{}
	kv.scanHeads(func(v core.Var, ver *version) {
		out[v] = Record{
			Scalar:  ver.rec.Scalar,
			Payload: append([]byte(nil), ver.rec.Payload...),
			Sum:     ver.rec.Sum,
		}
	})
	return out
}

// scanHeads visits every non-empty chain head.
func (kv *KV) scanHeads(fn func(v core.Var, ver *version)) {
	for i := range kv.shards {
		for v, ch := range kv.shards[i].data {
			if ver := ch.head.Load(); ver != nil {
				fn(v, ver)
			}
		}
	}
	kv.extra.Range(func(k, val any) bool {
		if ver := val.(*chain).head.Load(); ver != nil {
			fn(k.(core.Var), ver)
		}
		return true
	})
}

// SnapshotSlots implements SnapshotBackend.
func (kv *KV) SnapshotSlots() int { return len(kv.slots) }

// SnapshotAcquire implements SnapshotBackend: pin the given reader slot to
// the current published commit clock and return the snapshot timestamp.
// The store-then-revalidate loop closes the race with a concurrent GC
// horizon scan: the GC loads the clock before scanning the pins, so a pin
// whose revalidation saw an unchanged clock is either observed by the scan
// or at least as new as the horizon the GC used. Lock-free and
// allocation-free: two atomic loads and a store on the uncontended path.
func (kv *KV) SnapshotAcquire(slot int) int64 {
	sl := &kv.slots[slot]
	kv.activePins.Add(1)
	for {
		s := kv.snapClock.Load()
		sl.ts.Store(s)
		if kv.snapClock.Load() == s {
			return s
		}
	}
}

// SnapshotRelease implements SnapshotBackend: unpin the slot.
func (kv *KV) SnapshotRelease(slot int) {
	kv.slots[slot].ts.Store(-1)
	kv.activePins.Add(-1)
}

// SnapshotRead implements SnapshotBackend: return v's value as of the
// pinned snapshot snap, walking the chain latest-first to the newest
// version with a committed begin <= snap. No lock, no shard mutex, no
// allocation: an immutable map lookup plus atomic pointer loads and the
// payload checksum. The pin guarantees every version the walk accepts is
// safe to checksum — the GC never collects a version whose end exceeds the
// minimum active snapshot. The slot indexes the reader's local counters
// only; visibility comes from snap.
func (kv *KV) SnapshotRead(slot int, v core.Var, snap int64) core.Value {
	ch := kv.chainOf(v, false)
	if ch == nil {
		return 0
	}
	for ver := ch.head.Load(); ver != nil; ver = ver.next.Load() {
		b := ver.begin.Load()
		if b < 0 || b > snap {
			continue // uncommitted, or committed after the snapshot
		}
		if e := ver.end.Load(); e != 0 && e <= snap {
			continue // defensive: superseded before the snapshot
		}
		sl := &kv.slots[slot]
		sl.reads.Add(1)
		sl.bytes.Add(int64(len(ver.rec.Payload)))
		if checksum(ver.rec.Payload) != ver.rec.Sum {
			panic(fmt.Sprintf("storage: payload corruption on %s (snapshot %d)", v, snap))
		}
		return ver.rec.Scalar
	}
	return 0
}

// VersionsGCed implements SnapshotBackend.
func (kv *KV) VersionsGCed() int64 { return kv.versionsGCed.Load() }

// SnapshotReads implements SnapshotBackend: total reads served through the
// snapshot path (summed over the per-slot counters).
func (kv *KV) SnapshotReads() int64 {
	var n int64
	for i := range kv.slots {
		n += kv.slots[i].reads.Load()
	}
	return n
}

// minActiveSnapshot returns the GC horizon: the oldest snapshot any reader
// has pinned, or the published commit clock when none is pinned (every
// future snapshot will be at least that new). The clock is loaded before
// the pins are scanned — the ordering SnapshotAcquire's revalidation pairs
// with. When the snapshot path is idle the scan is one extra atomic load.
func (kv *KV) minActiveSnapshot() int64 {
	min := kv.snapClock.Load()
	if kv.activePins.Load() == 0 {
		return min
	}
	for i := range kv.slots {
		if s := kv.slots[i].ts.Load(); s >= 0 && s < min {
			min = s
		}
	}
	return min
}

// Stats returns the physical work counters since Reset.
func (kv *KV) Stats() Stats {
	var snapBytes int64
	for i := range kv.slots {
		snapBytes += kv.slots[i].bytes.Load()
	}
	return Stats{
		Reads:         kv.reads.Load(),
		Writes:        kv.writes.Load(),
		BytesRead:     kv.bytesRead.Load() + snapBytes,
		BytesWritten:  kv.bytesWritten.Load(),
		Rollbacks:     kv.rollbacks.Load(),
		SnapshotReads: kv.SnapshotReads(),
		VersionsGCed:  kv.versionsGCed.Load(),
	}
}
