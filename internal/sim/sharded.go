// Sharded dispatch: the runtime behind Run, for every scheduler (a plain
// one arrives wrapped in online.Mutexed, a single shard). Each shard has a
// decision mutex (dmu) and a queue of parked requests. A user goroutine
// decides its own step request: it takes the dmu of the shard owning the
// step's variable, asks the scheduler, and either proceeds with the grant or
// parks the request and waits for its verdict. Users therefore contend
// only on the shards their steps touch, and an undelayed step costs no
// goroutine handoff at all.
// The Section 6 latency decomposition is unchanged: queueing on dmu plus
// the decision is scheduling time, time parked is waiting time, step cost
// (real backend work and/or the ExecTime knob) is execution time.
//
// A shard's decisions only ever run under its dmu, so per shard the
// scheduler's decision order and the granted-step log's order agree, and
// parking under the same dmu as the Try that delayed the request leaves no
// window for a lost wakeup: whoever retries the parked queue next (the
// shard's dispatch loop on a kick, or the next user deciding on the shard)
// sees it. A granted step's real work — the backend apply, the ExecTime
// sleep, and for the final step the backend commit plus the scheduler
// commit — runs after dmu is released, so a slow step never serializes
// unrelated decisions on its shard. Aborts roll the backend back *before*
// the scheduler releases the victim's locks (the victim is always parked
// or between its own requests when aborted, so its rollback races with
// nothing of its own).
//
// The per-shard dispatch loops only retry parked requests. Commits, aborts
// and wounds kick every shard's loop; a kicked loop takes its dmu and
// re-offers the parked queue. A deadlock breaker (triggered when every
// in-flight transaction is parked, with a ticker as backstop) picks a
// victim through the scheduler's global waits-for view. The breaker holds
// off while any commit is in flight on a user goroutine — that commit is
// guaranteed to arrive and may unblock the waiters for free.
//
// Lock order: shardState.dmu, then shardState.mu, then the run's
// txMu/outMu/metMu. No goroutine holds two shards' dmu at once, and the
// commit pipeline and step execution never run under a dmu.
//
// Config.Batch caps one parked-retry chunk: the retry scan offers up to
// Batch parked requests to the scheduler in one critical section
// (online.TryBatch — a single shard-mutex acquisition for the natively
// batched schedulers). Commits flow through a storage.GroupCommitter lane
// in every configuration; the lane releases a whole group's scheduler
// locks in one sweep, with a single kick of the dispatch loops per group
// (async lock release — commit processing leaves the user goroutine
// entirely once a lane has a driver).
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/storage"
)

// shardState is one shard's decision mutex, kick channel and parked queue,
// plus the reusable batch scratch of its parked-retry scan. dmu serializes
// every decision on the shard; mu (inner) guards parked, which the deadlock
// breaker scans and edits without taking dmu. The scratch fields (verdicts,
// decided, ids, idSlot, reqs) are only touched under dmu — decideBatch and
// retryParked run there — so batched retries allocate nothing in steady
// state.
type shardState struct {
	dmu    sync.Mutex
	kick   chan struct{}
	mu     sync.Mutex
	parked []request

	verdicts []verdict
	decided  []bool
	ids      []core.StepID
	idSlot   []int
	reqs     []request
}

func runSharded(cfg Config, cs online.ConcurrentScheduler, sys *core.System, users, maxRestarts, batch int) (*Metrics, error) {
	m := &Metrics{}
	presizeMetrics(m, sys, cfg.Backend != nil)
	var am report.AllocMeter
	am.Start()
	n := sys.NumTxs()
	cs.Begin(sys)

	var (
		txMu      sync.Mutex // guards attempts, committed, inFlight, woundedTx
		attempts  = make([]int, n)
		committed = make([]bool, n)
		inFlight  = map[int]bool{}
		woundedTx = map[int]bool{}

		outMu sync.Mutex
		// output is presized to the conflict-free request count; restarts
		// overflow into further chunks without copying the log (cold path).
		output report.Chunks[online.Event]

		metMu sync.Mutex // guards the histograms and counters in m
		errs  runErrors

		parkedCount atomic.Int64
		// committingCount is the number of transactions whose final step is
		// granted but whose commit has not run on its user goroutine yet.
		committingCount atomic.Int64
	)
	for i := range attempts {
		attempts[i] = 1
	}
	output.Grow(sys.StepCount())

	// Read-only fast path: when the scheduler's semantics allow it
	// (online.SnapshotSource) and the backend keeps version chains
	// (storage.SnapshotBackend) with a pin slot per user, transactions
	// whose every step is a Read are served from a pinned consistent
	// snapshot on their user goroutine — no request, no dispatch loop, no
	// scheduler call, no lock of any kind. Their commits are tracked in
	// snapCommitted (atomically, off the txMu domain) and they contribute
	// no granted-step events: the projected Output is the committed
	// write-set schedule, which is exactly what the replay self-checks
	// compare against.
	var sb storage.SnapshotBackend
	if b, ok := cfg.Backend.(storage.SnapshotBackend); ok {
		sb = b
	}
	roFast := false
	if src, ok := cfg.Sched.(online.SnapshotSource); ok && src.ReadOnlySnapshots() && sb != nil && users <= sb.SnapshotSlots() {
		roFast = true
	}
	var roTx []bool
	snapCommitted := make([]atomic.Bool, n)
	if roFast {
		roTx = make([]bool, n)
		for tx := range roTx {
			ro := len(sys.Txs[tx].Steps) > 0
			for _, st := range sys.Txs[tx].Steps {
				if st.Kind != core.Read {
					ro = false
					break
				}
			}
			roTx[tx] = ro
		}
	}

	shards := make([]*shardState, cs.NumShards())
	for i := range shards {
		shards[i] = &shardState{kick: make(chan struct{}, 1)}
	}
	done := make(chan struct{})
	breakCh := make(chan struct{}, 1)

	kickAll := func() {
		for _, ss := range shards {
			select {
			case ss.kick <- struct{}{}:
			default:
			}
		}
	}
	triggerBreak := func() {
		select {
		case breakCh <- struct{}{}:
		default:
		}
	}

	collectWounds := func() {
		ws := cs.Wounded()
		if len(ws) == 0 {
			return
		}
		fresh := false
		txMu.Lock()
		for _, w := range ws {
			if w >= 0 && w < n && !committed[w] && !woundedTx[w] {
				woundedTx[w] = true
				fresh = true
			}
		}
		txMu.Unlock()
		// Kick only on NEW wounds. A parked request under wound-wait
		// re-reports its wounded blockers on every retry; kicking for those
		// would make kicks and retries feed each other — a hot loop across
		// every dispatch goroutine that starves the very user goroutines
		// that must act on the wounds.
		if fresh {
			kickAll()
		}
	}

	// abortTx rolls the backend back and only then notifies the scheduler,
	// so the victim's locks are released after its dying writes are gone.
	// Every caller aborts a transaction that is either issuing this very
	// request or parked, so the rollback cannot race with the victim's own
	// step execution.
	abortTx := func(tx int) {
		if cfg.Backend != nil {
			cfg.Backend.Rollback(tx)
		}
		cs.Abort(tx)
		txMu.Lock()
		attempts[tx]++
		delete(inFlight, tx)
		txMu.Unlock()
		metMu.Lock()
		m.Aborts++
		metMu.Unlock()
	}

	// offer runs before a request goes to the scheduler: a wounded
	// requester is aborted instead (offer reports false), anyone else is
	// marked in flight.
	offer := func(tx int) bool {
		txMu.Lock()
		if woundedTx[tx] {
			delete(woundedTx, tx)
			txMu.Unlock()
			abortTx(tx)
			return false
		}
		inFlight[tx] = true
		txMu.Unlock()
		return true
	}

	// granted records a grant in the granted-step log. A grant of a final
	// step only marks the transaction committed — the commit runs later,
	// off the decision path — and granted reports it.
	granted := func(r request) (last bool) {
		last = r.idx == len(sys.Txs[r.tx].Steps)-1
		txMu.Lock()
		att := attempts[r.tx]
		if last {
			committed[r.tx] = true
			delete(inFlight, r.tx)
		}
		txMu.Unlock()
		if last {
			committingCount.Add(1)
		}
		outMu.Lock()
		output.Append(online.Event{Step: core.StepID{Tx: r.tx, Idx: r.idx}, Attempt: att})
		outMu.Unlock()
		return last
	}

	// decide runs the scheduler on one request under its shard's dmu and
	// does the decision's bookkeeping; wounds are collected before the
	// verdict is returned, and an abort kicks every shard. It reports
	// whether the request was decided; an undecided one must be parked by
	// the caller, still under dmu. decide allocates nothing.
	decide := func(r request, wasParked bool) (verdict, bool) {
		if !offer(r.tx) {
			kickAll()
			return verdict{aborted: true, parked: wasParked, decided: time.Now()}, true
		}
		d := cs.Try(core.StepID{Tx: r.tx, Idx: r.idx})
		collectWounds()
		now := time.Now()
		switch d {
		case online.Grant:
			return verdict{parked: wasParked, decided: now, lastGranted: granted(r)}, true
		case online.AbortTx:
			abortTx(r.tx)
			kickAll()
			return verdict{aborted: true, parked: wasParked, decided: now}, true
		}
		return verdict{}, false
	}

	// decideBatch decides a chunk of parked requests (each from a distinct
	// transaction, all on one shard) in one scheduler critical section,
	// under the shard's dmu: the requests are offered through
	// online.TryBatch — a single shard-mutex acquisition for the natively
	// batched schedulers — with the bookkeeping of decide, wounds collected
	// once after the batch and one kick for all of its aborts. Verdicts are
	// delivered to each decided request's reply channel; the returned slice
	// marks which requests were decided (the rest stay parked).
	decideBatch := func(ss *shardState, reqs []request) []bool {
		// All scratch comes from the shard state: decideBatch only ever
		// runs under ss.dmu, and the returned decided slice is consumed
		// before the dmu is released.
		ss.verdicts = ss.verdicts[:0]
		ss.decided = ss.decided[:0]
		for range reqs {
			ss.verdicts = append(ss.verdicts, verdict{})
			ss.decided = append(ss.decided, false)
		}
		verdicts, decided := ss.verdicts, ss.decided
		ids := ss.ids[:0]
		idSlot := ss.idSlot[:0]
		anyAbort := false
		for i, r := range reqs {
			if !offer(r.tx) {
				anyAbort = true
				verdicts[i] = verdict{aborted: true, parked: true, decided: time.Now()}
				decided[i] = true
				continue
			}
			ids = append(ids, core.StepID{Tx: r.tx, Idx: r.idx})
			idSlot = append(idSlot, i)
		}
		ss.ids, ss.idSlot = ids, idSlot
		var ds []online.Decision
		if len(ids) > 0 {
			ds = online.TryBatch(cs, ids)
		}
		collectWounds()
		now := time.Now()
		for k, d := range ds {
			i := idSlot[k]
			switch d {
			case online.Grant:
				verdicts[i] = verdict{parked: true, decided: now, lastGranted: granted(reqs[i])}
				decided[i] = true
			case online.AbortTx:
				abortTx(reqs[i].tx)
				anyAbort = true
				verdicts[i] = verdict{aborted: true, parked: true, decided: now}
				decided[i] = true
			}
		}
		if anyAbort {
			kickAll()
		}
		// Reply only after the whole batch's bookkeeping (wounds included)
		// is done: a granted user's next request must not race ahead of the
		// wounds its own grant produced.
		for i := range reqs {
			if decided[i] {
				reqs[i].reply <- verdicts[i]
			}
		}
		return decided
	}

	// retryParked re-offers a shard's parked requests, chunked through the
	// batch path (one scheduler critical section per chunk of at most
	// Config.Batch requests), until a full scan makes no progress. The
	// caller holds ss.dmu. Replies are sent under the locks but never
	// block: a parked request's user waits on an empty one-slot channel
	// and gets exactly one reply.
	retryParked := func(ss *shardState) {
		for {
			progressed := false
			ss.mu.Lock()
			n := len(ss.parked)
			kept := ss.parked[:0]
			for start := 0; start < n; start += batch {
				end := start + batch
				if end > n {
					end = n
				}
				if end-start == 1 {
					p := ss.parked[start]
					if v, ok := decide(p, true); ok {
						p.reply <- v
						parkedCount.Add(-1)
						progressed = true
					} else {
						kept = append(kept, p)
					}
					continue
				}
				reqs := ss.reqs[:0]
				reqs = append(reqs, ss.parked[start:end]...)
				ss.reqs = reqs
				dec := decideBatch(ss, reqs)
				for i, d := range dec {
					if d {
						parkedCount.Add(-1)
						progressed = true
					} else {
						kept = append(kept, ss.parked[start+i])
					}
				}
			}
			ss.parked = kept
			ss.mu.Unlock()
			if !progressed {
				return
			}
		}
	}

	// tryBreak aborts a victim when every in-flight transaction is parked.
	// It must stay cheap when there is no deadlock: an atomic precheck
	// gates it, and parked-queue mutexes are only ever taken one at a time,
	// never a decision mutex (a breaker that locks all shards wholesale
	// convoys with the deciders on small machines). The shard-by-shard snapshot can go stale if
	// a request unparks mid-scan; the worst case is one spurious victim
	// abort, which the restart machinery absorbs.
	tryBreak := func() {
		if committingCount.Load() > 0 {
			return // a pending commit will kick and may unblock everything
		}
		txMu.Lock()
		flying := len(inFlight)
		txMu.Unlock()
		if flying == 0 || int(parkedCount.Load()) < flying {
			return
		}
		stuckSet := map[int]bool{}
		var stuck []int
		for _, ss := range shards {
			ss.mu.Lock()
			for _, p := range ss.parked {
				if !stuckSet[p.tx] {
					stuckSet[p.tx] = true
					stuck = append(stuck, p.tx)
				}
			}
			ss.mu.Unlock()
		}
		txMu.Lock()
		deadlocked := len(stuck) > 0 && len(inFlight) > 0
		for tx := range inFlight {
			if !stuckSet[tx] {
				deadlocked = false
				break
			}
		}
		txMu.Unlock()
		if !deadlocked {
			return
		}
		victim, ok := cs.Victim(stuck)
		if !ok || !containsInt(stuck, victim) {
			victim = stuck[0]
		}
		var reply chan verdict
		for _, ss := range shards {
			ss.mu.Lock()
			for i, p := range ss.parked {
				if p.tx == victim {
					reply = p.reply
					ss.parked = append(ss.parked[:i], ss.parked[i+1:]...)
					break
				}
			}
			ss.mu.Unlock()
			if reply != nil {
				break
			}
		}
		if reply == nil {
			return // the victim unparked meanwhile; no deadlock after all
		}
		parkedCount.Add(-1)
		metMu.Lock()
		m.DeadlockBreaks++
		metMu.Unlock()
		abortTx(victim)
		reply <- verdict{aborted: true, parked: true, decided: time.Now()}
		kickAll()
	}

	// loopWG joins the dispatch loops and the deadlock breaker on shutdown:
	// Run must not return while machinery goroutines from this run are
	// still winding down, or they bleed CPU into whatever the caller does
	// next (back-to-back runs in one process, e.g. an experiment sweep).
	var loopWG sync.WaitGroup

	// Deadlock breaker: eager triggers from parking users plus a ticker
	// backstop for triggers lost to races. The tick also re-kicks shards
	// with parked requests — a watchdog against wake-ups starved by the Go
	// scheduler on oversubscribed machines.
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		ticker := time.NewTicker(250 * time.Microsecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-breakCh:
				tryBreak()
			case <-ticker.C:
				if parkedCount.Load() > 0 {
					kickAll()
					tryBreak()
				}
			}
		}
	}()

	// Per-shard dispatch loops: each serves its shard's kicks by retrying
	// the parked queue under the shard's dmu. Decisions on fresh requests
	// are taken by the requesting users themselves (see the user loop).
	for i := range shards {
		loopWG.Add(1)
		go func(ss *shardState) {
			defer loopWG.Done()
			for {
				select {
				case <-ss.kick:
					ss.dmu.Lock()
					retryParked(ss)
					ss.dmu.Unlock()
				case <-done:
					return
				}
			}
		}(shards[i])
	}

	// Group commit: finishing users enqueue into a per-lane commit pipeline
	// instead of committing inline; the lane's driver (the first committer
	// to find it idle — a live user goroutine, so no wakeup handoff)
	// discards a whole group's undo logs while their locks are still held,
	// then releases the group's scheduler locks and kicks the dispatch
	// loops once. The breaker stays disabled until the group's release
	// completes (committingCount is decremented last), preserving the "a
	// pending commit always arrives" argument. Lanes partition by
	// transaction id, NOT by shard (a transaction's locks may span shards,
	// so a shard partition of commits does not exist); the shard count is
	// only borrowed as a concurrency heuristic for how many lanes to run.
	//
	// Both modes commit through the lanes: with Batch <= 1 a lane's groups
	// are usually singletons (an idle lane makes its enqueuer the driver,
	// which is exactly the old inline commit), but whenever commits pile up
	// on a lane the followers return immediately and the driver releases
	// their locks for them — asynchronous lock release no longer depends on
	// batching being enabled.
	gc := storage.NewGroupCommitter(cfg.Backend, cs.NumShards(), func(txs []int) {
		for _, tx := range txs {
			cs.Commit(tx)
		}
		kickAll()
		committingCount.Add(-int64(len(txs)))
	})
	// Durable backends sync once per drained group (storage.GroupSyncer —
	// the fsync coalescing group commit exists for). A failed sync fails
	// the whole group, leader and followers alike: record it as the run
	// error; the release callback above still runs so locks free and the
	// run drains instead of wedging.
	gc.OnFail(func(txs []int, err error) {
		errs.set(fmt.Errorf("sim: durable group commit of %d txs: %w", len(txs), err))
	})

	// User goroutines: one terminal per user, jobs assigned round-robin.
	// Each user decides its own requests under the dmu of the shard owning
	// the step's variable, waits for a verdict only when its request
	// parks, and executes each granted step here, after the dmu is
	// released.
	var wg sync.WaitGroup
	jobCh := make(chan int)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(user)*7919))
			// reply is this user's reusable verdict channel for parked
			// requests: a parked request gets exactly one reply (from a
			// parked-queue retry or the deadlock breaker) and the user reads
			// it before its next request, so one buffered channel per user
			// replaces the per-step allocation.
			reply := make(chan verdict, 1)
			// latBuf batches the fast path's latency samples locally; they
			// are merged into the shared histogram once, when the user
			// finishes, so serving a snapshot transaction takes no mutex.
			var latBuf []float64
			for tx := range jobCh {
				if roFast && roTx[tx] {
					// Read-only fast path: one pinned snapshot, every step
					// a lock-free chain walk, nothing shared but atomics.
					txStart := time.Now()
					steps := sys.Txs[tx].Steps
					snap := sb.SnapshotAcquire(user)
					for i := range steps {
						if cfg.ThinkTime > 0 {
							time.Sleep(time.Duration(rng.Int63n(int64(cfg.ThinkTime) + 1)))
						}
						sb.SnapshotRead(user, steps[i].Var, snap)
						if cfg.ExecTime > 0 {
							time.Sleep(cfg.ExecTime)
						}
					}
					sb.SnapshotRelease(user)
					snapCommitted[tx].Store(true)
					latBuf = append(latBuf, float64(time.Since(txStart)))
					continue
				}
				txStart := time.Now()
				for {
					restart, failed := false, false
					steps := len(sys.Txs[tx].Steps)
					for idx := 0; idx < steps; idx++ {
						if cfg.ThinkTime > 0 {
							time.Sleep(time.Duration(rng.Int63n(int64(cfg.ThinkTime) + 1)))
						}
						sent := time.Now()
						ss := shards[cs.ShardOf(sys.Txs[tx].Steps[idx].Var)]
						r := request{tx: tx, idx: idx, reply: reply}
						ss.dmu.Lock()
						v, decided := decide(r, false)
						if !decided {
							ss.mu.Lock()
							ss.parked = append(ss.parked, r)
							ss.mu.Unlock()
							parked := parkedCount.Add(1)
							txMu.Lock()
							flying := len(inFlight)
							txMu.Unlock()
							if int(parked) >= flying {
								triggerBreak()
							}
						}
						retryParked(ss)
						ss.dmu.Unlock()
						if !decided {
							v = <-reply
						}
						metMu.Lock()
						if v.parked {
							m.WaitNs.Add(float64(v.decided.Sub(sent)))
						} else {
							m.SchedNs.Add(float64(v.decided.Sub(sent)))
						}
						metMu.Unlock()
						if v.aborted {
							restart = true
							break
						}
						if !applyStep(&cfg, tx, idx, m, &metMu, &errs) {
							// Failed execution: abort through the normal
							// path — undo the final step's committed mark if
							// any, roll the backend back, release locks —
							// and stop this transaction for good. Run
							// surfaces the recorded error.
							if v.lastGranted {
								txMu.Lock()
								committed[tx] = false
								txMu.Unlock()
							}
							abortTx(tx)
							kickAll()
							if v.lastGranted {
								committingCount.Add(-1)
							}
							failed = true
							break
						}
						if v.lastGranted {
							// Commit order matters: the backend discards the
							// undo log while locks are still held, then the
							// scheduler releases them, then the other shards
							// are kicked to retry; only then may the breaker
							// resume (committingCount). The sequence runs on
							// the commit pipeline's lane — inline for a lone
							// committer, on the lane driver for a group.
							gc.Enqueue(tx)
						}
					}
					if failed || !restart {
						break
					}
					txMu.Lock()
					budget := attempts[tx] > maxRestarts
					txMu.Unlock()
					if budget {
						break
					}
					time.Sleep(time.Duration(rng.Int63n(int64(50 * time.Microsecond))))
				}
				metMu.Lock()
				m.TxLatencyNs.Add(float64(time.Since(txStart)))
				metMu.Unlock()
			}
			if len(latBuf) > 0 {
				metMu.Lock()
				for _, x := range latBuf {
					m.TxLatencyNs.Add(x)
				}
				metMu.Unlock()
			}
		}(u)
	}

	start := time.Now()
	for tx := 0; tx < n; tx++ {
		jobCh <- tx
	}
	close(jobCh)
	wg.Wait()
	// Flush the commit pipeline before stopping the loops: pending groups
	// still need their undo logs discarded and locks released, and the
	// metrics below must see a quiesced backend.
	gc.Close()
	groups, txs := gc.Stats()
	m.CommitGroups, m.GroupCommits = int(groups), int(txs)
	close(done)
	loopWG.Wait()
	m.Elapsed = time.Since(start)
	if err := errs.get(); err != nil {
		return nil, err
	}
	if err := durableErr(cfg.Backend); err != nil {
		return nil, err
	}

	txMu.Lock()
	for tx := 0; tx < n; tx++ {
		if committed[tx] || snapCommitted[tx].Load() {
			m.Committed++
		}
	}
	outMu.Lock()
	m.Output = projectFinal(&output, committed)
	outMu.Unlock()
	txMu.Unlock()
	if m.Elapsed > 0 {
		m.Throughput = float64(m.Committed) / m.Elapsed.Seconds()
	}
	fillAllocStats(m, &am)
	fillSnapshotStats(m, cfg.Backend)
	fillDurableStats(m, cfg.Backend)
	return m, nil
}
