// Package lockorder is the positive fixture: every construct here violates
// the documented lock hierarchy and must be reported. The type and field
// names replicate the real engine's (the analyzer keys classes by
// OwnerType.field, not by package).
package lockorder

import "sync"

type railStripe struct {
	mu   sync.Mutex
	subs map[string][]string
}

type stripedRail struct {
	stripes []railStripe
	compMu  sync.Mutex
	parent  map[string]string
}

// compUnderNothingThenStripe violates the nesting direction: compMu is the
// innermost rail lock and must never be held while acquiring a stripe.
func (r *stripedRail) compUnderNothingThenStripe(i int) {
	r.compMu.Lock()
	r.stripes[i].mu.Lock() // want "railStripe.mu acquired while stripedRail.compMu is held"
	r.stripes[i].mu.Unlock()
	r.compMu.Unlock()
}

// helperLocksStripe exists to hide the stripe acquisition behind a call.
func (r *stripedRail) helperLocksStripe(i int) {
	r.stripes[i].mu.Lock()
	defer r.stripes[i].mu.Unlock()
	r.parent["a"] = "b"
}

// compThenHelper hits the same violation through the call summary.
func (r *stripedRail) compThenHelper(i int) {
	r.compMu.Lock()
	defer r.compMu.Unlock()
	r.helperLocksStripe(i) // want "call to helperLocksStripe may acquire railStripe.mu while stripedRail.compMu is held"
}

// unsortedLoop acquires many stripes in an order nothing proves ascending.
func (r *stripedRail) unsortedLoop(locked []int) {
	for _, i := range locked {
		r.stripes[i].mu.Lock() // want "not provably ascending"
	}
	for _, i := range locked {
		r.stripes[i].mu.Unlock()
	}
}

type tableShard struct {
	mu sync.Mutex
	n  int
}

type shardedTable struct {
	shards []tableShard
}

// nestedShards holds one shard mutex while taking another: the sharded
// table's sweeps must release each shard before locking the next.
func (s *shardedTable) nestedShards(a, b int) {
	s.shards[a].mu.Lock()
	s.shards[b].mu.Lock() // want "second tableShard.mu acquired while one is held"
	s.shards[b].n++
	s.shards[b].mu.Unlock()
	s.shards[a].mu.Unlock()
}

type Disk struct {
	syncMu sync.Mutex
	mu     sync.Mutex
	n      int
}

// syncUnderBackend takes the group-sync mutex under the backend mutex; the
// documented order is syncMu outside mu (GroupSync), never the reverse.
func (d *Disk) syncUnderBackend() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncMu.Lock() // want "Disk.syncMu acquired while Disk.mu is held"
	d.syncMu.Unlock()
}

// recursiveSync self-deadlocks on a single-instance class.
func (d *Disk) recursiveSync() {
	d.syncMu.Lock()
	d.syncMu.Lock() // want "recursive acquisition of Disk.syncMu"
	d.syncMu.Unlock()
	d.syncMu.Unlock()
}

// lockInLoopNoUnlock re-locks a single-instance class every iteration
// without releasing it in the loop body.
func (d *Disk) lockInLoopNoUnlock(n int) {
	for i := 0; i < n; i++ {
		d.mu.Lock() // want "Disk.mu locked inside a loop with no unlock in the loop body"
		d.n++
	}
}

type shardState struct {
	dmu    sync.Mutex
	mu     sync.Mutex
	parked []int
}

// dmuUnderParked takes a shard's decision mutex while holding its parked
// queue mutex: dmu is the outer lock of the sim domain.
func dmuUnderParked(ss *shardState) {
	ss.mu.Lock()
	ss.dmu.Lock() // want "shardState.dmu acquired while shardState.mu is held"
	ss.dmu.Unlock()
	ss.mu.Unlock()
}

// twoDecisionMutexes holds one shard's dmu while deciding on another.
func twoDecisionMutexes(shards []*shardState, a, b int) {
	shards[a].dmu.Lock()
	shards[b].dmu.Lock() // want "second shardState.dmu acquired while one is held"
	shards[b].dmu.Unlock()
	shards[a].dmu.Unlock()
}

// lockAllDecisions takes every shard's dmu in a loop: no ordered
// multi-acquisition is documented for the class.
func lockAllDecisions(shards []*shardState) {
	for _, ss := range shards {
		ss.dmu.Lock() // want "a loop acquires multiple shardState.dmu instances"
	}
}
