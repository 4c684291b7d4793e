package online

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// compGraph is the striped component graph: an acyclic conflict graph over
// transaction incarnations, shared by ConcurrentSGT (its serialization
// graph) and the Sharded combinator (its cross-shard ordering rail). One
// global graph behind one mutex would serialize every conflicting grant and
// pay a full reachability walk per call; the striped graph removes both
// costs:
//
//   - The graph is partitioned into per-component subgraphs. A union-find
//     component map under compMu (critical sections of a few pointer
//     chases) tracks which nodes can possibly be connected; subgraphs are
//     keyed by component root and owned by the stripe the root hashes to,
//     each stripe behind its own mutex.
//   - An insert locks only the stripes owning the components it touches.
//     If no source shares the requester's component, no path back to any
//     source can exist — connectivity in the edge graph is always a subset
//     of the component relation, because components are unioned before an
//     edge between them becomes visible — so the edges go in with no cycle
//     check; inserts on disjoint components proceed in parallel on
//     different stripes. Only a same-component source forces the exact
//     DFS, which runs inside that one component's subgraph under its single
//     stripe lock, on reusable per-stripe scratch.
//   - Incarnation liveness lives inside the graph: state[tx] packs the
//     transaction's current epoch and a retired bit (2e = epoch e live,
//     2e+1 = retired). Callers collect sources lock-free (ConcurrentSGT's
//     marks, Sharded's grant logs), so a source may have been aborted, or
//     committed and pruned, a moment ago. insert re-validates every source
//     under the stripe locks — retiring a node requires its component
//     root's stripe, which insert holds — and drops dead sources instead of
//     edging to them. An edge from a dead source would never be removed:
//     its node is never committed again, so neither it nor anything it
//     reaches could ever be pruned.
//   - Retirement is published under the stripe lock: prune flips the
//     retired bit of every node it removes, and abortTx starts a fresh
//     epoch, while the component's stripe is held.
//
// Locking protocol (deadlock-free by construction): stripe mutexes are
// always acquired in ascending index order; compMu nests strictly inside
// them (it is never held while acquiring a stripe mutex); a component root
// can only be absorbed into another component by a thread holding the
// root's stripe, so once a thread holds the stripes covering its roots
// (validated under compMu), those roots — and their subgraphs — are stable
// until it unlocks. The cclint lockorder hierarchy enforces it
// (compStripe.mu rank 10, compGraph.compMu rank 20).
//
// Union-find entries are never deleted: a retired node may live on as a
// pure component label (splitting the map could break the connectivity
// invariant). The graph is per-run (rebuilt or reset by Begin), so this is
// bounded by the run's incarnation count. withdraw does not un-merge
// components either — the component map stays a conservative
// over-approximation, which can only cost an unnecessary exact check, never
// miss a cycle.
type compGraph struct {
	stripes []compStripe
	state   []atomic.Int64 // per tx: epoch<<1, |1 when that incarnation retired

	compMu sync.Mutex
	parent map[railNode]railNode // union-find; missing entry = self root
}

// compStripe owns the subgraphs of the components whose roots hash to it,
// plus the reusable scratch its DFS and prune sweeps run on.
type compStripe struct {
	mu   sync.Mutex
	subs map[railNode]*compSub

	visited map[railNode]int // DFS visited-stamp scratch
	stamp   int
	stack   []railNode
	indeg   map[railNode]int // prune scratch
}

// compSub is one component's subgraph: its edges and committed nodes.
type compSub struct {
	edges     map[railNode]map[railNode]bool
	committed map[railNode]bool
}

func newCompGraph(stripes, numTxs int) *compGraph {
	if stripes < 1 {
		stripes = 1
	}
	g := &compGraph{
		stripes: make([]compStripe, stripes),
		state:   make([]atomic.Int64, numTxs),
		parent:  map[railNode]railNode{},
	}
	for i := range g.stripes {
		g.stripes[i].subs = map[railNode]*compSub{}
		g.stripes[i].visited = map[railNode]int{}
		g.stripes[i].indeg = map[railNode]int{}
	}
	return g
}

// reset rewinds the graph for a fresh run over the same transaction count,
// keeping the per-stripe scratch maps.
func (g *compGraph) reset() {
	for i := range g.state {
		g.state[i].Store(0)
	}
	clear(g.parent)
	for i := range g.stripes {
		clear(g.stripes[i].subs)
	}
}

// node returns the transaction's current incarnation.
//
//optcc:hotpath
func (g *compGraph) node(tx int) railNode {
	return railNode{tx: tx, epoch: int(g.state[tx].Load() >> 1)}
}

// alive reports whether n is a live (not aborted, not pruned) incarnation.
// Lock-free; definitive only while n's component stripe is held (see
// insert), advisory otherwise (the marks compaction path). A dead
// incarnation never becomes live again.
//
//optcc:hotpath
func (g *compGraph) alive(n railNode) bool {
	return g.state[n.tx].Load() == int64(n.epoch)<<1
}

// stripeOf maps a component root to the stripe owning its subgraph.
func (g *compGraph) stripeOf(n railNode) int {
	h := uint32(n.tx)*2654435761 ^ uint32(n.epoch)*40503
	return int(h % uint32(len(g.stripes)))
}

// find returns n's component root with path compression. Caller holds
// compMu.
func (g *compGraph) find(n railNode) railNode {
	root := n
	for {
		p, ok := g.parent[root]
		if !ok || p == root {
			break
		}
		root = p
	}
	for n != root {
		p := g.parent[n]
		g.parent[n] = root
		n = p
	}
	return root
}

// lockComp locks the stripe owning n's component and returns the current
// root and stripe index. It retries when a concurrent union moves the root
// to another stripe between the lookup and the lock; every retry consumes
// a union, so the loop terminates. Caller unlocks stripes[stripe].mu.
func (g *compGraph) lockComp(n railNode) (root railNode, stripe int) {
	for {
		g.compMu.Lock()
		root = g.find(n)
		g.compMu.Unlock()
		stripe = g.stripeOf(root)
		g.stripes[stripe].mu.Lock()
		g.compMu.Lock()
		root = g.find(n)
		ok := g.stripeOf(root) == stripe
		g.compMu.Unlock()
		if ok {
			return root, stripe
		}
		g.stripes[stripe].mu.Unlock()
	}
}

// unlockAll releases the stripes an insert locked.
func (g *compGraph) unlockAll(locked []int) {
	for _, s := range locked {
		g.stripes[s].mu.Unlock()
	}
}

// insert atomically checks that adding source→me edges keeps the graph
// acyclic and inserts them. It returns the edges that were new, appended
// into buf (so a caller with a reusable buffer allocates nothing), and
// whether the insert succeeded; a failed insert mutates nothing. Sources
// are the caller's lock-free snapshot: each is re-validated as live under
// the stripe locks and silently dropped if it retired in the window. The
// caller holds no graph lock.
func (g *compGraph) insert(me railNode, sources, buf []railNode) (added []railNode, ok bool) {
	added = buf[:0]
	if len(sources) == 0 {
		// No conflicting predecessors: no edges, no cycle, no locks.
		return added, true
	}
	var lockBuf [8]int
	var rootBuf [8]railNode
	for attempt := 0; ; attempt++ {
		// Snapshot the stripes covering every involved component root.
		locked := lockBuf[:0]
		if attempt >= 2 {
			// Concurrent unions moved a root out of our snapshot twice:
			// escalate to every stripe, which cannot fail validation.
			for i := range g.stripes {
				locked = append(locked, i)
			}
		} else {
			g.compMu.Lock()
			locked = append(locked, g.stripeOf(g.find(me)))
			for _, src := range sources {
				if s := g.stripeOf(g.find(src)); !slices.Contains(locked, s) {
					locked = append(locked, s)
				}
			}
			g.compMu.Unlock()
			sort.Ints(locked)
		}
		for _, s := range locked {
			g.stripes[s].mu.Lock()
		}
		// Re-resolve the roots under the locks; if they all still live on
		// locked stripes they are pinned until we unlock — and so is each
		// source's liveness, because retiring a node takes its component
		// root's stripe. A dead source needs no root: it stays dead.
		g.compMu.Lock()
		meRoot := g.find(me)
		valid := slices.Contains(locked, g.stripeOf(meRoot))
		srcRoots := rootBuf[:0] // foreign roots to merge (unique)
		sameComp, anyLive := false, false
		for _, src := range sources {
			if !valid {
				break
			}
			if !g.alive(src) {
				continue // retired between the caller's read and the locks
			}
			anyLive = true
			root := g.find(src)
			if !slices.Contains(locked, g.stripeOf(root)) {
				valid = false
			} else if root == meRoot {
				sameComp = true
			} else if !slices.Contains(srcRoots, root) {
				srcRoots = append(srcRoots, root)
			}
		}
		g.compMu.Unlock()
		if !valid {
			g.unlockAll(locked)
			continue
		}
		if !anyLive {
			g.unlockAll(locked)
			return added, true
		}

		st := &g.stripes[g.stripeOf(meRoot)]
		sub := st.subs[meRoot]
		if sameComp && sub != nil {
			// Exact check, scoped to me's component: a new edge src→me
			// closes a cycle iff me already reaches src. Sources in
			// foreign components cannot be reached — a path would have
			// unioned them — so only live same-component sources lacking
			// their edge are targets.
			st.stack = st.stack[:0]
			for _, src := range sources {
				if g.alive(src) && !sub.edges[src][me] && g.sameRoot(src, meRoot) {
					st.stack = append(st.stack, src)
				}
			}
			if st.reaches(sub, me, st.stack) {
				g.unlockAll(locked)
				return added, false
			}
		}
		// Merge foreign components into me's (union before the edges become
		// visible, keeping connectivity ⊆ component relation), then insert.
		if len(srcRoots) > 0 {
			g.compMu.Lock()
			for _, root := range srcRoots {
				g.parent[root] = meRoot
			}
			g.compMu.Unlock()
		}
		if sub == nil {
			sub = &compSub{edges: map[railNode]map[railNode]bool{}, committed: map[railNode]bool{}}
			st.subs[meRoot] = sub
		}
		for _, root := range srcRoots {
			os := &g.stripes[g.stripeOf(root)]
			if other := os.subs[root]; other != nil {
				for from, tos := range other.edges {
					if cur := sub.edges[from]; cur == nil {
						sub.edges[from] = tos
					} else {
						for to := range tos {
							cur[to] = true
						}
					}
				}
				for n := range other.committed {
					sub.committed[n] = true
				}
				delete(os.subs, root)
			}
		}
		for _, src := range sources {
			if !g.alive(src) {
				continue
			}
			m := sub.edges[src]
			if m == nil {
				m = map[railNode]bool{}
				sub.edges[src] = m
			}
			if !m[me] {
				m[me] = true
				added = append(added, src)
			}
		}
		g.unlockAll(locked)
		return added, true
	}
}

// sameRoot reports whether n's component root is root. Called with the
// root's stripe held, so the answer is stable.
func (g *compGraph) sameRoot(n, root railNode) bool {
	g.compMu.Lock()
	same := g.find(n) == root
	g.compMu.Unlock()
	return same
}

// reaches reports whether any node in targets is reachable from start in
// sub. It reuses the stripe's visited-stamp scratch: no allocation on the
// steady-state path. Caller holds the stripe's mutex; targets aliases the
// stripe's stack scratch, so the walk uses a local continuation index
// rather than the shared stack slice.
func (st *compStripe) reaches(sub *compSub, start railNode, targets []railNode) bool {
	if len(targets) == 0 {
		return false
	}
	st.stamp++
	if len(st.visited) > 4096 {
		// Bound scratch growth across long runs; stamps make stale entries
		// harmless, this only caps memory.
		st.visited = make(map[railNode]int)
	}
	head := len(targets) // frontier lives after the targets in st.stack
	st.stack = append(st.stack, start)
	for len(st.stack) > head {
		u := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		if st.visited[u] == st.stamp {
			continue
		}
		st.visited[u] = st.stamp
		for _, t := range st.stack[:head] {
			if u == t {
				return true
			}
		}
		for v := range sub.edges[u] {
			st.stack = append(st.stack, v)
		}
	}
	return false
}

// withdraw removes the src→me edges an insert added, after the step they
// cleared was rejected elsewhere (Sharded's inner shard scheduler). All of
// them live in me's component: insert unioned before inserting, and
// components only merge. Removing in-edges of the uncommitted me makes no
// committed node prunable, so nothing retires here.
func (g *compGraph) withdraw(me railNode, added []railNode) {
	if len(added) == 0 {
		return
	}
	root, stripe := g.lockComp(me)
	st := &g.stripes[stripe]
	if sub := st.subs[root]; sub != nil {
		for _, src := range added {
			if m := sub.edges[src]; m != nil {
				delete(m, me)
				if len(m) == 0 {
					delete(sub.edges, src)
				}
			}
		}
	}
	st.mu.Unlock()
}

// commitTx marks the transaction's current incarnation committed and
// prunes its component; an edgeless singleton retires immediately. The
// retired nodes are appended into buf, so a caller with a reusable buffer
// allocates nothing.
func (g *compGraph) commitTx(tx int, buf []railNode) []railNode {
	me := g.node(tx)
	root, stripe := g.lockComp(me)
	st := &g.stripes[stripe]
	retired := buf[:0]
	if sub := st.subs[root]; sub == nil {
		g.state[tx].Store(int64(me.epoch)<<1 | 1)
		retired = append(retired, me)
	} else {
		sub.committed[me] = true
		retired = g.prune(st, root, sub, retired)
	}
	st.mu.Unlock()
	return retired
}

// abortTx drops the incarnation's node from its component, starts a fresh
// epoch (which retires the incarnation everywhere, atomically with the
// node leaving the graph), and prunes. The dropped node and the pruned
// ones are appended into buf.
func (g *compGraph) abortTx(tx int, buf []railNode) []railNode {
	gone := g.node(tx)
	root, stripe := g.lockComp(gone)
	g.state[tx].Store(int64(gone.epoch+1) << 1)
	st := &g.stripes[stripe]
	retired := append(buf[:0], gone)
	if sub := st.subs[root]; sub != nil {
		delete(sub.edges, gone)
		for src, m := range sub.edges {
			if m[gone] {
				delete(m, gone)
				if len(m) == 0 {
					delete(sub.edges, src)
				}
			}
		}
		delete(sub.committed, gone)
		retired = g.prune(st, root, sub, retired)
	}
	st.mu.Unlock()
	return retired
}

// prune removes committed nodes with no incoming edges from root's
// subgraph, flips their retired bit and appends them to retired; it drops
// the subgraph once empty. Edges only ever point from earlier grants to
// later ones, so such a node can never rejoin a cycle. The sweep is scoped
// to one component — a removal can only unblock successors inside the same
// subgraph — and eligibility only changes through an event in the node's
// own component, so pruning each touched component to fixpoint retires
// exactly what a global prune would. Reuses the stripe's in-degree scratch;
// caller holds the stripe's mutex.
func (g *compGraph) prune(st *compStripe, root railNode, sub *compSub, retired []railNode) []railNode {
	for {
		clear(st.indeg)
		for _, tos := range sub.edges {
			for to := range tos {
				st.indeg[to]++
			}
		}
		progress := false
		for n := range sub.committed {
			if st.indeg[n] == 0 {
				delete(sub.edges, n)
				delete(sub.committed, n)
				g.state[n.tx].Store(int64(n.epoch)<<1 | 1)
				retired = append(retired, n)
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if len(sub.edges) == 0 && len(sub.committed) == 0 {
		delete(st.subs, root)
	}
	return retired
}

// indegree counts the live in-edges of the transaction's current
// incarnation — every in-edge lives in its own component's subgraph, so
// one stripe lock covers the count. ConcurrentSGT's victim selection uses
// it to match the sequential SGT's most-constrained heuristic.
func (g *compGraph) indegree(tx int) int {
	me := g.node(tx)
	root, stripe := g.lockComp(me)
	st := &g.stripes[stripe]
	in := 0
	if sub := st.subs[root]; sub != nil {
		for _, tos := range sub.edges {
			if tos[me] {
				in++
			}
		}
	}
	st.mu.Unlock()
	return in
}
