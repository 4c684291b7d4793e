// Package lockorderclean is the negative fixture: every function follows
// the documented hierarchy and the analyzer must stay silent.
package lockorderclean

import (
	"sort"
	"sync"
)

type compStripe struct {
	mu   sync.Mutex
	subs map[string][]string
}

type compGraph struct {
	stripes []compStripe
	compMu  sync.Mutex
	parent  map[string]string
}

// compInsideStripe is the documented order: compMu nests inside a stripe.
func (g *compGraph) compInsideStripe(i int) {
	g.stripes[i].mu.Lock()
	defer g.stripes[i].mu.Unlock()
	g.compMu.Lock()
	g.parent["a"] = "b"
	g.compMu.Unlock()
}

// sortedLoop is the insert idiom: sort the indices, then lock ascending.
func (g *compGraph) sortedLoop(locked []int) {
	sort.Ints(locked)
	for _, i := range locked {
		g.stripes[i].mu.Lock()
	}
	for _, i := range locked {
		g.stripes[i].mu.Unlock()
	}
}

// rangeOverStripes locks every stripe by ranging the backing array itself —
// index order by construction.
func (g *compGraph) rangeOverStripes() {
	for i := range g.stripes {
		g.stripes[i].mu.Lock()
	}
	for i := range g.stripes {
		g.stripes[i].mu.Unlock()
	}
}

// retryLoop is the lockComp idiom: the loop body releases the stripe before
// the next iteration re-acquires it, so only one instance is ever held.
func (g *compGraph) retryLoop(i int) {
	for {
		g.compMu.Lock()
		j := i
		g.compMu.Unlock()
		g.stripes[j].mu.Lock()
		if j == i {
			g.stripes[j].mu.Unlock()
			return
		}
		g.stripes[j].mu.Unlock()
	}
}

type tableShard struct {
	mu sync.Mutex
	n  int
}

type shardedTable struct {
	shards []tableShard
}

// sweep is the release-before-next idiom over shards.
func (s *shardedTable) sweep() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
		s.shards[i].n++
		s.shards[i].mu.Unlock()
	}
}

type Disk struct {
	syncMu sync.Mutex
	mu     sync.Mutex
	n      int
}

// groupSync is the documented order: syncMu outside, mu inside, and mu is
// released before the sync work so appends can proceed mid-fsync.
func (d *Disk) groupSync() {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	d.mu.Lock()
	n := d.n
	d.mu.Unlock()
	_ = n
}

// plainBackend is the ordinary single-mutex method shape.
func (d *Disk) plainBackend() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
}

type shardState struct {
	dmu    sync.Mutex
	mu     sync.Mutex
	parked []int
}

// decideAndPark is the user's decision shape: the parked queue mutex nests
// inside the shard's decision mutex.
func decideAndPark(ss *shardState, r int) {
	ss.dmu.Lock()
	ss.mu.Lock()
	ss.parked = append(ss.parked, r)
	ss.mu.Unlock()
	ss.dmu.Unlock()
}

// scanParked is the deadlock breaker's shape: one shard's parked queue at a
// time, without any decision mutex.
func scanParked(shards []*shardState) int {
	n := 0
	for _, ss := range shards {
		ss.mu.Lock()
		n += len(ss.parked)
		ss.mu.Unlock()
	}
	return n
}
