// Package sim is the concurrent runtime of the repository: a
// goroutine-per-user simulation of the Section 6 environment. Multiple
// users at terminals execute transactions that mostly compute locally but
// occasionally touch shared data; a scheduler grants, delays or aborts each
// arriving step request.
//
// There is one runtime (sharded.go): each user goroutine decides its own
// step requests under the decision mutex of the shard owning the step's
// variable, and a per-shard dispatch loop retries the requests parked
// there. A natively concurrent scheduler (online.ConcurrentScheduler) gets
// one decision mutex per shard; a plain online.Scheduler is wrapped in
// online.Mutexed — one shard, every decision behind one lock — which is
// Section 6's single scheduler.
//
// The simulator decomposes each step's latency exactly as Section 6 does:
//
//	scheduling time — queueing for the scheduler plus its decision,
//	waiting time    — imposed delay until conflicting steps complete,
//	execution time  — the cost of running the step.
//
// Execution time is real work when Config.Backend is set: every granted
// step is applied to the storage backend on the requesting user's goroutine,
// after the shard's decision mutex is released
// (read the record, evaluate the step's interpretation, write a
// copy-on-write record), commits discard the transaction's undo log through
// the group-commit pipeline, and aborts roll it back before the scheduler
// releases any locks. Without a backend the step cost is simulated; either
// way Config.ExecTime adds an optional extra per-step cost. Commit
// processing is off the scheduler's grant critical path: the user leaves
// the decision mutex with the final step's grant and finishes execution
// before the commit releases locks.
//
// Any internal/online.Scheduler can be plugged in, so the experiments
// compare the waiting time induced by schedulers with poorer or richer
// fixpoint sets (E4), deadlock-handling policies (E7), structured versus
// unstructured locking (E6), and real storage execution (E9).
//
// # Memory discipline
//
// The steady-state request→grant→execute→commit cycle is allocation-free
// (DESIGN.md "Memory discipline", enforced by TestHotPathAllocCeilings):
// each user goroutine reuses one verdict reply channel for its parked
// requests, the histograms and the granted-step log are presized to the
// run's expected sample counts (restarts spill into further chunks, never
// a copy of the whole log), the parked-retry batch buffers are per-shard
// scratch, and commit flows through pooled lock-table and group-commit
// state. The allocations that remain in the drivers are
// deliberately confined to cold paths: restart bookkeeping after an abort,
// the deadlock breaker's stuck-set, the failure path's error wrapping, and
// end-of-run projection/reporting.
package sim

import (
	"fmt"
	"sync"
	"time"

	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/storage"
)

// Config parameterizes one simulation run.
type Config struct {
	// System is the instance system: each transaction is one job to run
	// exactly once. Build it from a template with Instantiate.
	System *core.System
	// Sched is the concurrency control under test. The simulator owns it
	// for the duration of the run.
	Sched online.Scheduler
	// Backend, when non-nil, executes every granted step against real
	// storage. Run resets it to the system's first initial state; the
	// system must be executable (every non-Read step interpreted). For
	// strict schedulers (serial, the strict 2PL family) the committed
	// backend state equals core.Exec of Metrics.Output — see
	// internal/storage.
	Backend storage.Backend
	// Users is the number of concurrent user goroutines; jobs are assigned
	// round-robin. Zero means one user per job.
	Users int
	// Batch caps how many parked step requests one retry of a shard's
	// parked queue offers the scheduler in one critical section
	// (online.TryBatch; 0 or 1 = one request at a time). Fresh requests
	// are always decided one by one, by the requesting user. In every
	// configuration each commit flows through the storage group-commit
	// pipeline: a
	// finishing transaction enqueues its commit, and the lane's driver —
	// the first committer to find the lane idle — discards undo logs and
	// releases scheduler locks for the whole accumulated group in one
	// sweep, asynchronously to every follower (async lock release; a lone
	// committer drives its own singleton group, which is the old inline
	// commit). The granted-step log and all invariants are unchanged; only
	// the batching of parked retries and commit processing differs.
	Batch int
	// ExecTime adds a simulated per-step execution cost on top of any
	// backend work (0 = none). It is slept on the user goroutine after the
	// grant, never under a decision mutex.
	ExecTime time.Duration
	// ThinkTime simulates per-user local computation between steps, drawn
	// uniformly from [0, ThinkTime].
	ThinkTime time.Duration
	// MaxRestarts bounds per-job restarts (0 means 1000).
	MaxRestarts int
	// Seed drives arrival jitter and backoff randomization.
	Seed int64
}

// Metrics aggregates a run.
type Metrics struct {
	// Committed is the number of jobs that committed.
	Committed int
	// Aborts counts transaction restarts.
	Aborts int
	// DeadlockBreaks counts victims chosen when every in-flight
	// transaction was blocked.
	DeadlockBreaks int
	// CommitGroups and GroupCommits report the group-commit pipeline's
	// coalescing: groups processed and transactions committed through
	// them. Every run commits through the pipeline, batched or not
	// (unbatched groups are mostly singletons); read-only transactions
	// served by the snapshot fast path bypass it.
	CommitGroups, GroupCommits int
	// WaitNs records per-request waiting time (delay until grant/abort).
	WaitNs report.Histogram
	// SchedNs records per-request scheduling time (queueing + decision).
	SchedNs report.Histogram
	// ExecNs records per-step execution time: the backend apply work
	// (empty when no backend is configured; ExecTime sleeps are excluded).
	ExecNs report.Histogram
	// TxLatencyNs records per-job total latency, restarts included.
	TxLatencyNs report.Histogram
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Throughput is committed jobs per second of wall clock.
	Throughput float64
	// AllocBytes is the heap bytes allocated during the run and AllocsPerTx
	// the heap objects allocated per committed transaction, both from the
	// runtime/metrics allocation counters (report.AllocMeter — NOT
	// runtime.ReadMemStats, whose stop-the-world measurably skews
	// sub-millisecond runs). The counters are process-global, so
	// concurrent activity outside the run pollutes them — they are the
	// trend meters behind ccbench -allocstats; the enforced per-step
	// ceilings live in TestHotPathAllocCeilings.
	AllocBytes  int64
	AllocsPerTx float64
	// SnapshotReads counts reads served through the storage snapshot path:
	// the read-only fast path that bypasses the grant machinery entirely
	// when the scheduler is a SnapshotSource and the backend a
	// storage.SnapshotBackend. Zero when the fast path is off.
	SnapshotReads int64
	// VersionGCed counts superseded storage versions the backend's garbage
	// collector unlinked during the run (zero for backends without version
	// chains).
	VersionGCed int64
	// Fsyncs, WALBytes, WALTruncated and RecoveryNs are the durable
	// backend's counters (storage.DurableBackend): log syncs, log bytes
	// appended, torn tails discarded by recovery, and the wall time of the
	// recovery that produced the backend. All zero for memory-only
	// backends.
	Fsyncs       int64
	WALBytes     int64
	WALTruncated int64
	RecoveryNs   int64
	// Checkpoint counters (storage.DurableBackend, checkpoint.go):
	// completed fuzzy checkpoints, failed attempts, sealed segments
	// retired behind a durable marker, bytes the recovery that produced
	// the backend actually replayed (log-since-checkpoint), and the
	// graceful-degradation health flag — true once persistent checkpoint
	// failures disabled the background checkpointer.
	Checkpoints        int64
	CheckpointFailures int64
	SegmentsRetired    int64
	RecoveryBytes      int64
	CheckpointerOff    bool
	// Output is the granted-step log projected to committed transactions'
	// final attempts, in grant order: a legal prefix (whole transactions
	// only) of the instance system, and a complete legal schedule when every
	// job committed. Attempts of transactions that never committed — e.g. a
	// restart budget exhausted on an aborted, rolled-back final attempt —
	// are excluded: their effects were undone, so including them would make
	// Output disagree with the committed state.
	Output core.Schedule
}

// GroupSize returns the mean commit-group size — the coalescing factor the
// group-commit pipeline achieved — or 0 when group commit was off.
func (m *Metrics) GroupSize() float64 {
	if m.CommitGroups == 0 {
		return 0
	}
	return float64(m.GroupCommits) / float64(m.CommitGroups)
}

// Instantiate builds an instance system with `jobs` transactions by cycling
// through the template's transactions. Instance i runs template transaction
// i mod n under the name "<template>#<i>".
func Instantiate(template *core.System, jobs int) *core.System {
	inst := &core.System{Name: template.Name + "-inst", IC: template.IC}
	for i := 0; i < jobs; i++ {
		src := template.Txs[i%len(template.Txs)]
		tx := core.Transaction{Name: fmt.Sprintf("%s#%d", src.Name, i), Steps: src.Steps}
		inst.Txs = append(inst.Txs, tx)
	}
	return inst.Normalize()
}

// request is one step request; a delayed one waits in its shard's parked
// queue until a retry or the deadlock breaker replies on reply.
type request struct {
	tx    int
	idx   int
	reply chan verdict
}

type verdict struct {
	aborted bool
	// parked reports the request was delayed before its decision, so its
	// latency is waiting time rather than scheduling time (Section 6).
	parked bool
	// lastGranted reports the grant completed the transaction's final
	// step: the user goroutine executes it and then drives the commit.
	lastGranted bool
	decided     time.Time
}

// runErrors collects the first asynchronous error of a run (backend apply
// failures on user goroutines, failed group-commit syncs).
type runErrors struct {
	mu  sync.Mutex
	err error
}

func (e *runErrors) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *runErrors) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// applyStep executes a granted step's real work on the user goroutine: the
// backend apply (timed into ExecNs under metMu) plus the optional ExecTime
// extra cost. This deliberately happens after the grant, with no decision
// mutex held. It reports whether the step succeeded; on
// failure the error is recorded and the caller must abort the transaction
// through the normal abort path (rollback, then scheduler release) and stop
// it — continuing, or worse committing, would persist a partially-applied
// transaction.
//
//optcc:hotpath
func applyStep(cfg *Config, tx, idx int, m *Metrics, metMu *sync.Mutex, errs *runErrors) bool {
	if cfg.Backend != nil {
		start := time.Now()
		//cclint:ignore hotpath the backend apply is the measured payload work itself, not dispatch overhead
		if err := cfg.Backend.ApplyStep(tx, cfg.System.Txs[tx].Steps[idx]); err != nil {
			//cclint:ignore hotpath failure path; an apply error aborts the transaction, allocation is irrelevant
			errs.set(fmt.Errorf("sim: apply %v: %w", core.StepID{Tx: tx, Idx: idx}, err))
			return false
		}
		metMu.Lock()
		m.ExecNs.Add(float64(time.Since(start)))
		metMu.Unlock()
	}
	if cfg.ExecTime > 0 {
		time.Sleep(cfg.ExecTime)
	}
	return true
}

// Run executes the simulation and returns its metrics. It is deterministic
// in structure (seeded jitter) but, as a true concurrent run, the exact
// interleaving varies; the metrics' invariants (all jobs commit, output
// legal) hold on every run.
//
// Every run goes through the dispatch runtime (see runSharded): users
// contend only on the shards their steps touch. A plain online.Scheduler
// is wrapped once in online.Mutexed — one shard, every decision behind one
// lock — which is the single scheduler of Section 6.
func Run(cfg Config) (*Metrics, error) {
	sys := cfg.System
	if sys == nil || sys.NumTxs() == 0 {
		return nil, fmt.Errorf("sim: empty system")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend != nil {
		if !sys.Executable() {
			return nil, fmt.Errorf("sim: backend execution needs an executable system (every non-Read step interpreted)")
		}
		cfg.Backend.Reset(sys.InitialStates()[0])
	}
	users := cfg.Users
	if users <= 0 || users > sys.NumTxs() {
		users = sys.NumTxs()
	}
	maxRestarts := cfg.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 1000
	}
	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}
	cs, ok := cfg.Sched.(online.ConcurrentScheduler)
	if !ok {
		cs = online.NewMutexed(cfg.Sched)
	}
	return runSharded(cfg, cs, sys, users, maxRestarts, batch)
}

// fillSnapshotStats copies the backend's snapshot-path counters into the
// metrics when the backend keeps version chains.
func fillSnapshotStats(m *Metrics, be storage.Backend) {
	if sb, ok := be.(storage.SnapshotBackend); ok {
		m.SnapshotReads = sb.SnapshotReads()
		m.VersionGCed = sb.VersionsGCed()
	}
}

// fillDurableStats copies the durable backend's counters into the metrics.
func fillDurableStats(m *Metrics, be storage.Backend) {
	if db, ok := be.(storage.DurableBackend); ok {
		ds := db.DurabilityStats()
		m.Fsyncs = ds.Fsyncs
		m.WALBytes = ds.WALBytes
		m.WALTruncated = ds.WALTruncated
		m.RecoveryNs = ds.RecoveryNs
		m.Checkpoints = ds.Checkpoints
		m.CheckpointFailures = ds.CheckpointFailures
		m.SegmentsRetired = ds.SegmentsRetired
		m.RecoveryBytes = ds.RecoveryBytes
		m.CheckpointerOff = ds.CheckpointerOff
	}
}

// durableErr surfaces a durable backend's sticky error as the run error:
// a failed append or sync means some "committed" transaction may not be on
// stable storage, and a run that silently succeeded anyway would be the
// exact durability lie the torture tests exist to rule out.
func durableErr(be storage.Backend) error {
	if db, ok := be.(storage.DurableBackend); ok {
		if err := db.Err(); err != nil {
			return fmt.Errorf("sim: durable backend: %w", err)
		}
	}
	return nil
}

// presizeMetrics reserves the histograms' expected steady-state sample
// counts — one wait-or-sched sample per request, one latency sample per
// job, one exec sample per applied step — so recording a sample never
// allocates on a conflict-free run (restarts spill into further chunks
// without copying the recorded samples, a cold path).
func presizeMetrics(m *Metrics, sys *core.System, backend bool) {
	steps := sys.StepCount()
	m.WaitNs.Grow(steps)
	m.SchedNs.Grow(steps)
	m.TxLatencyNs.Grow(sys.NumTxs())
	if backend {
		m.ExecNs.Grow(steps)
	}
}

// fillAllocStats closes the run's allocation meter into the metrics.
func fillAllocStats(m *Metrics, am *report.AllocMeter) {
	allocs, bytes := am.Delta()
	m.AllocBytes = bytes
	if m.Committed > 0 {
		m.AllocsPerTx = float64(allocs) / float64(m.Committed)
	}
}

// projectFinal keeps each committed transaction's last attempt from the
// granted-step log, in execution order: a legal schedule of the committed
// transactions (complete when all of them committed). Transactions that
// never committed are excluded entirely — a restart budget exhausted on an
// aborted final attempt leaves steps in the log whose effects were rolled
// back, and keeping them would make the result disagree with both the
// committed backend state and any legal schedule semantics.
func projectFinal(output *report.Chunks[online.Event], committed []bool) core.Schedule {
	lastAttempt := make([]int, len(committed))
	output.Each(func(e online.Event) {
		if committed[e.Step.Tx] && e.Attempt > lastAttempt[e.Step.Tx] {
			lastAttempt[e.Step.Tx] = e.Attempt
		}
	})
	h := make(core.Schedule, 0, output.Len())
	output.Each(func(e online.Event) {
		if committed[e.Step.Tx] && e.Attempt == lastAttempt[e.Step.Tx] {
			h = append(h, e.Step)
		}
	})
	return h
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
