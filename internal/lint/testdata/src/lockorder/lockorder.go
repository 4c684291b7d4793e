// Package lockorder is the positive fixture: every construct here violates
// the documented lock hierarchy and must be reported. The type and field
// names replicate the real engine's (the analyzer keys classes by
// OwnerType.field, not by package).
package lockorder

import "sync"

type compStripe struct {
	mu   sync.Mutex
	subs map[string][]string
}

type compGraph struct {
	stripes []compStripe
	compMu  sync.Mutex
	parent  map[string]string
}

// compUnderNothingThenStripe violates the nesting direction: compMu is the
// innermost graph lock and must never be held while acquiring a stripe.
func (g *compGraph) compUnderNothingThenStripe(i int) {
	g.compMu.Lock()
	g.stripes[i].mu.Lock() // want "compStripe.mu acquired while compGraph.compMu is held"
	g.stripes[i].mu.Unlock()
	g.compMu.Unlock()
}

// helperLocksStripe exists to hide the stripe acquisition behind a call.
func (g *compGraph) helperLocksStripe(i int) {
	g.stripes[i].mu.Lock()
	defer g.stripes[i].mu.Unlock()
	g.parent["a"] = "b"
}

// compThenHelper hits the same violation through the call summary.
func (g *compGraph) compThenHelper(i int) {
	g.compMu.Lock()
	defer g.compMu.Unlock()
	g.helperLocksStripe(i) // want "call to helperLocksStripe may acquire compStripe.mu while compGraph.compMu is held"
}

// unsortedLoop acquires many stripes in an order nothing proves ascending.
func (g *compGraph) unsortedLoop(locked []int) {
	for _, i := range locked {
		g.stripes[i].mu.Lock() // want "not provably ascending"
	}
	for _, i := range locked {
		g.stripes[i].mu.Unlock()
	}
}

// descendingLoop locks every stripe from the top index down: the reverse
// of the documented ascending order, so two such sweeps racing an
// ascending insert can deadlock.
func (g *compGraph) descendingLoop() {
	for i := len(g.stripes) - 1; i >= 0; i-- {
		g.stripes[i].mu.Lock() // want "not provably ascending"
	}
	for i := range g.stripes {
		g.stripes[i].mu.Unlock()
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
