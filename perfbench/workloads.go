package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
)

// workload is one named input mix. Every run is closed-loop from one
// process: nproc clients (sim.Config.Users), each sending its next
// transaction only when the previous one committed, against nproc shards,
// with no simulated execution or think time and an intake batch cap of 8.
type workload struct {
	name string
	why  string
	// jobs is the number of transactions one round runs.
	jobs int
	// keys is the table size; every key is loaded by Backend.Reset.
	keys int
	// zipf is the key skew exponent (0 = uniform).
	zipf float64
	// tx draws one transaction's steps.
	tx func(g *gen) []core.Step
	// fsync names the disk backend's fsync policy ("" for memory backends).
	fsync string
	// backend and sched build a fresh backend and scheduler for a round;
	// dir is a fresh directory for a durable backend, fs its filesystem.
	backend func(dir string, fs storage.FS) (storage.Backend, error)
	sched   func() online.Scheduler
}

// The engine's parallelism follows the machine: one client and one shard
// per CPU.
var nproc = runtime.NumCPU()

const (
	batchCap  = 8
	valueSize = 256
	// durableFsync is durable-write's fsync policy. It is never, not group:
	// with an fsync on every commit's path the workload measured the host's
	// disk, whose latency drifts twofold over an hour, rather than the
	// engine (see README.md).
	durableFsync = storage.FsyncNever
)

func inc(l []core.Value) core.Value { return l[len(l)-1] + 1 }

func read(v core.Var) core.Step   { return core.Step{Var: v, Kind: core.Read} }
func update(v core.Var) core.Step { return core.Step{Var: v, Kind: core.Update, Fn: inc} }

// gen draws a round's transactions.
type gen struct {
	rng  *rand.Rand
	keys []core.Var
	zipf *rand.Zipf
}

func (g *gen) key() core.Var {
	if g.zipf != nil {
		return g.keys[g.zipf.Uint64()]
	}
	return g.keys[g.rng.Intn(len(g.keys))]
}

var workloads = []*workload{
	{
		name: "contended-rw",
		why: "strict 2PL wound-wait on kv under zipf(1.1) over 10k keys (2.5 MB, fits L2): " +
			"lock waits, wounds, dispatch loops and copy-on-write puts",
		jobs: 60000,
		keys: 10000,
		zipf: 1.1,
		tx: func(g *gen) []core.Step {
			steps := []core.Step{read(g.key()), read(g.key()), update(g.key()), update(g.key())}
			g.rng.Shuffle(len(steps), func(a, b int) { steps[a], steps[b] = steps[b], steps[a] })
			return steps
		},
		backend: func(string, storage.FS) (storage.Backend, error) {
			return storage.NewKV(storage.Config{Shards: nproc, ValueSize: valueSize, Recycle: true}), nil
		},
		sched: func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, nproc) },
	},
	{
		name: "snapshot-read",
		why: "mv on kv, 95% read-only 8-read transactions uniform over 100k keys (25 MB, beyond L2): " +
			"snapshot reads bypass dispatch and the scheduler",
		jobs: 100000,
		keys: 100000,
		tx: func(g *gen) []core.Step {
			if g.rng.Float64() < 0.95 {
				steps := make([]core.Step, 8)
				for i := range steps {
					steps[i] = read(g.key())
				}
				return steps
			}
			return []core.Step{update(g.key()), update(g.key()), update(g.key()), update(g.key())}
		},
		backend: func(string, storage.FS) (storage.Backend, error) {
			return storage.NewKV(storage.Config{Shards: nproc, ValueSize: valueSize}), nil
		},
		sched: func() online.Scheduler { return online.NewConcurrentMV(nproc) },
	},
	{
		name: "durable-write",
		why: "strict 2PL on the disk backend, fsync=never, 2 increments uniform over 100k keys, " +
			"checkpoint every 2 MiB of WAL: WAL append, segment seals and checkpointing",
		jobs:  36000,
		keys:  100000,
		fsync: durableFsync.String(),
		tx: func(g *gen) []core.Step {
			return []core.Step{update(g.key()), update(g.key())}
		},
		backend: func(dir string, fs storage.FS) (storage.Backend, error) {
			return storage.NewDisk(storage.Config{Dir: dir, FS: fs, Fsync: durableFsync,
				CheckpointBytes: 2 << 20})
		},
		sched: func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, nproc) },
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// generate builds round's input from the seed alone: the key table with
// its initial values and jobs transactions. The engine receives only the
// returned system.
func (w *workload) generate(seed int64, round, jobs int) *core.System {
	g := &gen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(round))), keys: make([]core.Var, w.keys)}
	if w.zipf > 0 {
		g.zipf = rand.NewZipf(g.rng, w.zipf, 1, uint64(w.keys-1))
	}
	init := make(core.DB, w.keys)
	for i := range g.keys {
		g.keys[i] = core.Var(fmt.Sprintf("k%06d", i))
		init[g.keys[i]] = core.Value(g.rng.Intn(1000))
	}
	txs := make([]core.Transaction, jobs)
	for i := range txs {
		txs[i] = core.Transaction{Name: "t", Steps: w.tx(g)}
	}
	return &core.System{Name: w.name, Txs: txs, IC: core.TrivialIC(init)}
}
