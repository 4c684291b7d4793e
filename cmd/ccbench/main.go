// Command ccbench runs the paper-reproduction experiments (T1–T4 theorems,
// F1–F5 figures, E1–E15 measurements) and prints their tables.
//
// Usage:
//
//	ccbench                 # run everything
//	ccbench -exp E1,E4      # run selected experiments
//	ccbench -md             # emit markdown (the source of EXPERIMENTS.md)
//	ccbench -json           # emit machine-readable results (BENCH_*.json)
//	ccbench -list           # list experiment ids
//	ccbench -exp E8 -shards 1,8,32 -users 16   # custom scalability sweep
//	ccbench -exp E9 -backend kv                # real-storage execution sweep
//	ccbench -exp E10 -batch 1,16,64 -users 8   # batched-dispatch sweep
//	ccbench -exp E11 -shards 1,4               # native-TO vs Sharded(TO) sweep
//	ccbench -exp E12 -readfrac 0.5,0.99 -users 16  # multiversion read sweep
//	ccbench -exp E13 -fsync always,group -batch 1,8,32  # durable-commit sweep
//	ccbench -exp E14 -checkpoint 0,4096,16384  # fuzzy-checkpoint footprint sweep
//	ccbench -exp E15 -shards 1,4,16 -users 16  # native SGT/OCC vs sharded sweep
//
// Profiling and allocation measurement (the perf workflow behind the
// zero-allocation hot path, DESIGN.md "Memory discipline"):
//
//	ccbench -exp E10 -cpuprofile cpu.pprof   # CPU profile of the sweep
//	ccbench -exp E10 -memprofile mem.pprof   # heap profile at exit
//	ccbench -exp E8,E10,E11 -allocstats      # per-experiment allocator pressure
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"optcc/internal/experiments"
	"optcc/internal/report"
	"optcc/internal/storage"
)

// jsonTable / jsonResult are the machine-readable rendering of an
// experiment result: the same tables the text mode prints, as data. The
// schema is deliberately flat (strings as rendered) so BENCH_*.json files
// diff cleanly across PRs.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

type jsonResult struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Text   string      `json:"text,omitempty"`
	Tables []jsonTable `json:"tables"`
}

// parseIntList parses "1,4,16" into positive ints.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("count %d out of range", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseFracList parses "0.5,0.9,0.99" into fractions in [0,1].
func parseFracList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("fraction %v out of [0,1]", f)
		}
		out = append(out, f)
	}
	return out, nil
}

func main() {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		mdFlag      = flag.Bool("md", false, "emit markdown instead of plain tables")
		jsonFlag    = flag.Bool("json", false, "emit machine-readable JSON instead of plain tables")
		listFlag    = flag.Bool("list", false, "list experiment ids and exit")
		shardsFlag  = flag.String("shards", "", "comma-separated shard counts for the E8/E10/E11/E15 sweeps (E8 default 1,4,16; E10 default 4; E11/E15 default 1,4)")
		usersFlag   = flag.String("users", "", "comma-separated user counts for the E8/E10 sweeps (E8 default 4,8; E10 default 16,48); the first entry also sets E11/E15's users")
		batchFlag   = flag.String("batch", "", "comma-separated batch sizes (max parked requests per retry critical section) for the E10 sweep (default 1,8,32)")
		fracFlag    = flag.String("readfrac", "", "comma-separated read fractions for the E12 multiversion sweep (default 0.5,0.9,0.99)")
		fsyncFlag   = flag.String("fsync", "", "comma-separated fsync policies for the E13 durable-commit sweep (always|group|never; default always,group,never)")
		ckptFlag    = flag.String("checkpoint", "", "comma-separated checkpoint intervals (WAL bytes) for the E14 sweep; 0 = checkpointing off (default 0,4096,16384)")
		backendFlag = flag.String("backend", "", "storage backend for the E9/E10/E11/E15 real-execution sweeps (kv|noop; default kv)")
		cpuFlag     = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memFlag     = flag.String("memprofile", "", "write a heap profile to this file after the experiments finish")
		allocFlag   = flag.Bool("allocstats", false, "report per-experiment allocator pressure (heap objects and MB allocated) after the tables")
	)
	flag.Parse()
	// stopCPU flushes and closes the CPU profile; it must also run on the
	// error exits below (os.Exit skips defers), or the profile of a failed
	// run — the one most worth inspecting — would be truncated.
	stopCPU := func() {}
	if *cpuFlag != "" {
		f, err := os.Create(*cpuFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		stopped := false
		stopCPU = func() {
			if !stopped {
				stopped = true
				pprof.StopCPUProfile()
				f.Close()
			}
		}
		defer stopCPU()
	}
	if *backendFlag != "" {
		if _, err := experiments.NewBackend(*backendFlag, 1, 0); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: bad -backend: %v\n", err)
			os.Exit(2)
		}
		experiments.E9Config.Backend = *backendFlag
		experiments.E10Config.Backend = *backendFlag
		experiments.E11Config.Backend = *backendFlag
		experiments.E15Config.Backend = *backendFlag
	}
	if *shardsFlag != "" {
		sweep, err := parseIntList(*shardsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: bad -shards: %v\n", err)
			os.Exit(2)
		}
		experiments.E8Config.Shards = sweep
		experiments.E10Config.Shards = sweep
		experiments.E11Config.Shards = sweep
		experiments.E15Config.Shards = sweep
		experiments.E12Config.Shards = sweep[0]
		experiments.E13Config.Shards = sweep[0]
	}
	if *usersFlag != "" {
		sweep, err := parseIntList(*usersFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: bad -users: %v\n", err)
			os.Exit(2)
		}
		experiments.E8Config.Users = sweep
		experiments.E10Config.Users = sweep
		experiments.E11Config.Users = sweep[0]
		experiments.E15Config.Users = sweep[0]
		experiments.E12Config.Users = sweep[0]
		experiments.E13Config.Users = sweep[0]
	}
	if *batchFlag != "" {
		sweep, err := parseIntList(*batchFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: bad -batch: %v\n", err)
			os.Exit(2)
		}
		experiments.E10Config.Batches = sweep
		experiments.E13Config.Batches = sweep
	}
	if *fracFlag != "" {
		sweep, err := parseFracList(*fracFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: bad -readfrac: %v\n", err)
			os.Exit(2)
		}
		experiments.E12Config.ReadFracs = sweep
	}
	if *fsyncFlag != "" {
		var sweep []string
		for _, part := range strings.Split(*fsyncFlag, ",") {
			p := strings.TrimSpace(part)
			if _, err := storage.ParseFsyncPolicy(p); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: bad -fsync: %v\n", err)
				os.Exit(2)
			}
			sweep = append(sweep, p)
		}
		experiments.E13Config.Fsyncs = sweep
	}
	if *ckptFlag != "" {
		// Not parseIntList: 0 is a legal interval here (it is the
		// checkpointing-off control column of the sweep).
		var sweep []int
		for _, part := range strings.Split(*ckptFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 0 {
				fmt.Fprintf(os.Stderr, "ccbench: bad -checkpoint: %q is not a non-negative byte count\n", strings.TrimSpace(part))
				os.Exit(2)
			}
			sweep = append(sweep, n)
		}
		experiments.E14Config.Intervals = sweep
	}

	runners, order := experiments.All()
	if *listFlag {
		fmt.Println(strings.Join(order, " "))
		return
	}
	var ids []string
	if *expFlag == "all" || *expFlag == "" {
		ids = order
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q (known: %s)\n", id, strings.Join(order, " "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	if *mdFlag && !*jsonFlag {
		fmt.Println("# EXPERIMENTS — paper vs measured")
		fmt.Println()
		fmt.Println("Generated by `go run ./cmd/ccbench -md`.")
		fmt.Println()
	}
	// -allocstats meters each experiment with report.AllocMeter; the table
	// goes to stderr so -json on stdout stays machine-readable.
	var allocTable *report.Table
	if *allocFlag {
		allocTable = report.NewTable("allocator pressure (process-wide runtime/metrics deltas)",
			"experiment", "allocs", "alloc-MB")
	}
	var jsonOut []jsonResult
	for _, id := range ids {
		var am report.AllocMeter
		if *allocFlag {
			am.Start()
		}
		res, err := runners[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %s failed: %v\n", id, err)
			stopCPU()
			os.Exit(1)
		}
		if *allocFlag {
			allocs, bytes := am.Delta()
			allocTable.AddRow(id, allocs, float64(bytes)/(1<<20))
		}
		switch {
		case *jsonFlag:
			// Tables starts non-nil so table-less experiments render as []
			// rather than null — the schema must diff cleanly across PRs.
			jr := jsonResult{ID: res.ID, Title: res.Title, Text: res.Text, Tables: []jsonTable{}}
			for _, t := range res.Tables {
				jr.Tables = append(jr.Tables, jsonTable{Title: t.Title, Headers: t.Headers(), Rows: t.Rows()})
			}
			jsonOut = append(jsonOut, jr)
		case *mdFlag:
			fmt.Println(res.Markdown())
		default:
			fmt.Println(res.String())
		}
	}
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			stopCPU()
			os.Exit(1)
		}
	}
	if *allocFlag {
		fmt.Fprintln(os.Stderr, allocTable.String())
	}
	if *memFlag != "" {
		// A GC first, so the heap profile shows live retention rather than
		// garbage awaiting collection.
		runtime.GC()
		f, err := os.Create(*memFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: -memprofile: %v\n", err)
			stopCPU()
			os.Exit(2)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: -memprofile: %v\n", err)
			stopCPU()
			os.Exit(2)
		}
		f.Close()
	}
}
