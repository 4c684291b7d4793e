// Package storage is the storage layer of the engine: the pluggable
// Backend interface the runtime executes granted steps against, and its
// first implementation, the sharded in-memory KV store (kv.go).
//
// The paper's Section 6 runtime originally *simulated* execution — a step's
// cost was a sleep — so latency and throughput measured scheduling overhead
// only. A Backend turns execution time into real work: a granted step reads
// its variable's record (verifying the payload checksum), computes the
// step's interpretation, and writes a fresh copy-on-write record, with an
// undo log per transaction so aborts roll the database back.
//
// # Transaction discipline
//
// A Backend is driven under the same per-transaction discipline as the
// schedulers and the sharded dispatch runtime: calls on behalf of one
// transaction never overlap with each other, while calls for different
// transactions may be fully concurrent. In the runtime this holds by
// construction — a transaction's steps execute sequentially on its user
// goroutine, and rollback is only invoked while the transaction is parked
// or between its requests.
//
// # The replay invariant
//
// The committed backend state equals core.Exec of the committed schedule
// (the granted-step log projected to final attempts) whenever the execution
// is strict: no transaction reads or overwrites a value written by a
// transaction that has not yet committed or rolled back. Serial and the
// strict 2PL family (Mutexed, Sharded, ConcurrentStrict2PL)
// guarantee strictness — locks are held to commit, and rollback runs before
// lock release — so for them the invariant holds on every run; the
// race-enabled tests in internal/sim prove it. Non-strict schedulers
// (SGT-style aborting, OCC, TO) may execute dirty reads whose transaction
// later rolls back; running them against a Backend is safe (no corruption,
// no races) but the final state may legitimately differ from the committed
// replay. The disk backend is the deferred-write answer: it buffers every
// transaction's writes until commit, so uncommitted writes never leave the
// transaction's buffer and non-strict schedulers become recoverable rather
// than best-effort.
//
// # Durability
//
// The durable disk backend (disk.go) is a log-structured store: append-only
// segment files of checksummed records (wal.go), recovered by redo-only
// replay (recovery.go), with fsyncs coalesced through the GroupCommitter
// (GroupSync). The fault-injection surface lives in fs.go (ErrFS). See
// DESIGN.md "Durability".
package storage

import (
	"fmt"

	"optcc/internal/core"
)

// Backend is the storage engine the runtime executes granted steps against.
// See the package comment for the concurrency contract and the replay
// invariant. The tx argument is the transaction index of the system under
// execution; it keys the per-transaction undo log and local-variable
// context.
type Backend interface {
	// Name identifies the backend.
	Name() string
	// Reset discards all state and loads the initial database.
	Reset(init core.DB)
	// Get returns the scalar value of v, reading (and checksum-verifying)
	// the full payload. The tx argument is recorded for read-set extensions;
	// the in-memory KV does not use it.
	Get(tx int, v core.Var) core.Value
	// Put stores scalar as the new value of v under copy-on-write: a fresh
	// record is built (payload copied, scalar stamped, checksum recomputed)
	// and the previous record is appended to tx's undo log.
	Put(tx int, v core.Var, scalar core.Value)
	// Scan visits every variable with its scalar until fn returns false.
	// The iteration order is unspecified; the view is consistent per shard
	// but not across shards while writers are active.
	Scan(fn func(v core.Var, scalar core.Value) bool)
	// ApplyStep executes one granted step for tx with the paper's step
	// semantics (t_ij ← x_ij; x_ij ← f_ij(t_i1..t_ij)): Get the variable,
	// append it to tx's locals, and — unless the step is a Read — Put the
	// step interpretation of the locals. It errors if a non-Read step has
	// no interpretation.
	ApplyStep(tx int, step core.Step) error
	// Commit ends tx: its writes become permanent and its undo log and
	// locals are discarded.
	Commit(tx int)
	// Rollback aborts tx: its undo log is replayed in reverse, restoring
	// every overwritten record byte-identically, and its locals are
	// discarded so a restart begins fresh.
	Rollback(tx int)
	// State snapshots the scalar database state, the shape core.Exec
	// produces for the replay-invariant comparison.
	State() core.DB
}

// SnapshotBackend is the optional multiversion extension of Backend: a
// store keeping timestamp-stamped version chains can serve read-only
// transactions from a consistent snapshot without any lock or shard-mutex
// acquisition. A reader owns one pin slot (the runtime assigns slot = user
// index, gated on SnapshotSlots), acquires a snapshot timestamp, reads any
// number of variables as of that timestamp, and releases the pin; the
// store's garbage collector never recycles a version still visible to a
// pinned snapshot. Implemented by *KV; see DESIGN.md "Multiversion
// storage" for visibility rules and the GC safety argument.
type SnapshotBackend interface {
	Backend
	// SnapshotSlots is the number of concurrent pins supported; slots are
	// in [0, SnapshotSlots).
	SnapshotSlots() int
	// SnapshotAcquire pins slot to the newest fully published commit
	// timestamp and returns it.
	SnapshotAcquire(slot int) int64
	// SnapshotRelease unpins the slot.
	SnapshotRelease(slot int)
	// SnapshotRead returns v's value as of snapshot snap (which the caller
	// holds pinned via slot): the newest version committed at or before
	// snap, checksum-verified, with no lock taken.
	SnapshotRead(slot int, v core.Var, snap int64) core.Value
	// SnapshotReads reports reads served through the snapshot path.
	SnapshotReads() int64
	// VersionsGCed reports superseded versions the store unlinked (and,
	// with recycling on, returned to its freelists).
	VersionsGCed() int64
}

// New builds a backend by name with the given configuration. It is the one
// backend registry — cmd/ccsim and internal/experiments both resolve names
// through it, so a new backend registers here once. Known names: "kv" (the
// sharded in-memory store), "noop" (the do-nothing backend for measuring
// pure runtime overhead — see Noop) and "disk" (the durable log-structured
// store — see Disk; recovery of an existing directory goes through
// OpenDisk instead).
func New(name string, cfg Config) (Backend, error) {
	switch name {
	case "kv":
		return NewKV(cfg), nil
	case "noop":
		return NewNoop(), nil
	case "disk":
		return NewDisk(cfg)
	default:
		return nil, fmt.Errorf("storage: unknown backend %q (known: kv, noop, disk)", name)
	}
}
