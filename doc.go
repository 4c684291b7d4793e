// Package optcc reproduces H. T. Kung and C. H. Papadimitriou, "An
// Optimality Theory of Concurrency Control for Databases" (SIGMOD 1979),
// as a runnable Go library.
//
// The implementation lives in the internal packages (one per subsystem;
// see DESIGN.md for the inventory):
//
//	internal/core        transaction systems, states, execution, C(T)
//	internal/schedule    the schedule space H: counting, enumeration, sampling
//	internal/herbrand    Herbrand semantics and SR(T)            (Theorem 3)
//	internal/conflict    conflict graphs and CSR
//	internal/wsr         weak serializability WSR(T)             (Theorem 4)
//	internal/info        information levels and optimal schedulers (Theorems 1–2)
//	internal/fixpoint    hierarchy classification and |P|/|H|
//	internal/lockmgr     lock tables (monolithic + sharded with lock-free fast path), deadlock policies
//	internal/locking     locking policies: 2PL, 2PL′, selective; LRS (Section 5)
//	internal/geometry    progress space, blocks, deadlock region, homotopy (Section 5.3)
//	internal/online      online schedulers: serial, 2PL variants, SGT, TO, OCC, tree locking;
//	                     the concurrent contract (ConcurrentScheduler, Mutexed, Sharded,
//	                     ConcurrentStrict2PL) with the cross-shard ordering rail
//	internal/storage     storage layer: the Backend interface and the sharded in-memory
//	                     KV store (copy-on-write records, checksummed payloads,
//	                     per-transaction undo logs for abort rollback)
//	internal/sim         goroutine-per-user simulator of the Section 6 environment:
//	                     users decide their own steps under per-shard decision
//	                     mutexes for every scheduler (plain ones behind one lock,
//	                     as Mutexed), executing granted steps against the
//	                     storage backend
//	internal/workload    canonical systems (banking, Figure 1, …), generators and
//	                     payload sizers
//	internal/experiments every experiment of DESIGN.md / EXPERIMENTS.md
//
// Binaries: cmd/ccbench (experiments), cmd/ccviz (figures), cmd/ccsim
// (simulator). Runnable examples are under examples/.
//
// The benchmarks in bench_test.go regenerate every theorem, figure and
// measurement table:
//
//	go test -bench=. -benchmem
package optcc
