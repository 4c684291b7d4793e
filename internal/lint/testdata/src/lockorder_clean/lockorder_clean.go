// Package lockorderclean is the negative fixture: every function follows
// the documented hierarchy and the analyzer must stay silent.
package lockorderclean

import (
	"sort"
	"sync"
)

type railStripe struct {
	mu   sync.Mutex
	subs map[string][]string
}

type stripedRail struct {
	stripes []railStripe
	compMu  sync.Mutex
	parent  map[string]string
}

// compInsideStripe is the documented order: compMu nests inside a stripe.
func (r *stripedRail) compInsideStripe(i int) {
	r.stripes[i].mu.Lock()
	defer r.stripes[i].mu.Unlock()
	r.compMu.Lock()
	r.parent["a"] = "b"
	r.compMu.Unlock()
}

// sortedLoop is the reserve idiom: sort the indices, then lock ascending.
func (r *stripedRail) sortedLoop(locked []int) {
	sort.Ints(locked)
	for _, i := range locked {
		r.stripes[i].mu.Lock()
	}
	for _, i := range locked {
		r.stripes[i].mu.Unlock()
	}
}

// rangeOverStripes locks every stripe by ranging the backing array itself —
// index order by construction.
func (r *stripedRail) rangeOverStripes() {
	for i := range r.stripes {
		r.stripes[i].mu.Lock()
	}
	for i := range r.stripes {
		r.stripes[i].mu.Unlock()
	}
}

// retryLoop is the lockComp idiom: the loop body releases the stripe before
// the next iteration re-acquires it, so only one instance is ever held.
func (r *stripedRail) retryLoop(i int) {
	for {
		r.compMu.Lock()
		j := i
		r.compMu.Unlock()
		r.stripes[j].mu.Lock()
		if j == i {
			r.stripes[j].mu.Unlock()
			return
		}
		r.stripes[j].mu.Unlock()
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
