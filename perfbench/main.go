// Command perfbench is the repository's benchmark: it runs one named
// workload against the engine's public API (sim.Run with an online
// scheduler and a storage backend) for a fixed time, checks every round's
// output, and prints its metrics, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with the thin
// probe only. With -trace 1 they are the per-layer ones from traced rounds,
// alternating with untraced and unprobed rounds that give the tracing and
// probe overheads. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"optcc/internal/online"
	"optcc/internal/sim"
	"optcc/internal/storage"
)

// buildDir is the benchmark's scratch directory, relative to the checkout
// root it runs from.
const buildDir = ".bench_build"

func main() {
	workloadName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = per-layer metrics from traced rounds")
	flag.Parse()
	w, err := findWorkload(*workloadName)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload <name> -seed <n> -seconds <n> -trace <0|1>:", err)
		os.Exit(2)
	}
	os.Exit(run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}

// mode is how one round is instrumented.
type mode int

const (
	probeOff mode = iota // raw scheduler and backend
	probeOn              // thin probe: commit latency only
	traced               // full spans for the per-layer ledger
)

var modeNames = [...]string{"off", "probe", "traced"}

// roundResult is one round's measurements.
type roundResult struct {
	mode      mode
	committed int
	tps       float64
	latUs     []float64 // commit latencies
	setupS    float64   // generation start to first dispatched transaction
	generateS float64
	resetS    float64
	// snapshotReads, fsyncs and groupSize show which engine paths the
	// round took.
	snapshotReads int64
	fsyncs        int64
	groupSize     float64
	layers        map[string]metric // traced rounds only
	ledger        []txLedger        // traced rounds only
	spans         []span            // traced rounds only: the first transactions' spans
}

// keptSpanTxs bounds the spans a traced run writes out to those of its
// first transactions, which keeps the file small.
const keptSpanTxs = 2000

func run(w *workload, seed int64, budget time.Duration, trace bool) int {
	dir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("perfbench-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	meta := runMeta(w, seed, budget, trace, dir)
	metaJSON, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaJSON)

	// One small warm-up round fills the heap and code caches; it is checked
	// but not counted.
	if _, err := runRound(w, seed, 0, w.jobs/4, probeOn, dir); err != nil {
		return fail(w, 0, w.jobs/4, err)
	}
	cycle := []mode{probeOn}
	if trace {
		cycle = []mode{probeOn, traced, probeOff}
	}
	var rounds []*roundResult
	attempted := 0
	start := time.Now()
	for i := 0; time.Since(start) < budget || (trace && i < len(cycle)); i++ {
		md := cycle[i%len(cycle)]
		rr, err := runRound(w, seed, i+1, w.jobs, md, dir)
		attempted += w.jobs
		if err != nil {
			return fail(w, attempted, w.jobs, err)
		}
		rounds = append(rounds, rr)
		fmt.Printf("round %d %s: %d committed, %.0f tx/s, setup %.3fs\n",
			i+1, modeNames[md], rr.committed, rr.tps, rr.setupS)
	}

	metrics := map[string]metric{}
	if trace {
		perLayer(rounds, metrics)
		writeSpans(w, seed, rounds)
	} else {
		endToEnd(rounds, metrics)
	}
	printResult(w, seed, meta, rounds, attempted, metrics)
	return 0
}

// runRound generates a round's input, builds a fresh backend and
// scheduler, runs them through sim.Run and checks the output.
func runRound(w *workload, seed int64, round, jobs int, md mode, dir string) (*roundResult, error) {
	runtime.GC() // start every round from the same heap state
	base := time.Now()
	sys := w.generate(seed, round, jobs)
	generated := time.Since(base)

	var fsp *fsProbe
	var fs storage.FS
	if md == traced && w.fsync != "" {
		fsp = &fsProbe{FS: storage.OSFS{}}
		fs = fsp
	}
	inner, err := w.backend(filepath.Join(dir, fmt.Sprintf("wal-%d", round)), fs)
	if err != nil {
		return nil, err
	}
	if d, ok := inner.(*storage.Disk); ok {
		defer d.Destroy()
	}
	var sched online.Scheduler = w.sched()
	be := inner
	var rec *recorder
	if md != probeOff {
		slots := 0
		if sb, ok := inner.(storage.SnapshotBackend); ok {
			slots = sb.SnapshotSlots()
		}
		rec = newRecorder(base, jobs, nproc, slots, md == traced)
		if sched, err = wrapSched(sched, rec); err != nil {
			return nil, err
		}
		if be, err = wrapBackend(inner, rec); err != nil {
			return nil, err
		}
	}
	m, err := sim.Run(sim.Config{System: sys, Sched: sched, Backend: be, Users: nproc,
		Batch: batchCap, Seed: seed + int64(round)})
	if err != nil {
		return nil, err
	}
	closed, recovered, err := checkRound(sys, m, inner)
	if err != nil {
		return nil, fmt.Errorf("round %d check: %w", round, err)
	}
	rr := &roundResult{mode: md, committed: m.Committed, tps: m.Throughput,
		generateS: generated.Seconds(), snapshotReads: m.SnapshotReads, fsyncs: m.Fsyncs, groupSize: m.GroupSize()}
	if rec == nil {
		return rr, nil
	}
	rr.resetS = float64(rec.resetNs) / 1e9
	firstDispatch := int64(-1)
	for tx, f := range rec.first {
		if f == 0 {
			continue
		}
		if firstDispatch < 0 || f < firstDispatch {
			firstDispatch = f
		}
		if rec.ack[tx] == 0 {
			return nil, fmt.Errorf("round %d: transaction %d committed without an acknowledgement", round, tx)
		}
		rr.latUs = append(rr.latUs, float64(rec.ack[tx]-f)/1e3)
	}
	for i := range rec.slots {
		for _, rd := range rec.slots[i].readers {
			if firstDispatch < 0 || rd.start < firstDispatch {
				firstDispatch = rd.start
			}
			rr.latUs = append(rr.latUs, float64(rd.end-rd.start)/1e3)
		}
	}
	if len(rr.latUs) != m.Committed {
		return nil, fmt.Errorf("round %d: %d commit latencies for %d commits", round, len(rr.latUs), m.Committed)
	}
	rr.setupS = float64(firstDispatch) / 1e9
	if md == traced {
		in := layerInputs{m: m, durable: closed, recovered: recovered, fs: fsp}
		if st, ok := inner.(interface{ Stats() storage.Stats }); ok {
			in.stats = st.Stats()
		}
		if sb, ok := inner.(storage.SnapshotBackend); ok {
			in.snapshot = sb
		}
		spans := rec.allSpans()
		for _, sp := range spans {
			if sp.tx < keptSpanTxs {
				rr.spans = append(rr.spans, sp)
			}
		}
		rr.ledger = buildLedger(rec, spans)
		rr.layers = layerMetrics(rec, spans, rr.ledger, in)
	}
	return rr, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd reports the user-visible metrics: medians over the rounds of
// each round's throughput and commit-latency percentiles, the median
// set-up time, and the process's peak resident memory.
func endToEnd(rounds []*roundResult, out map[string]metric) {
	var tps, p50, p99, setup []float64
	for _, r := range rounds {
		tps = append(tps, r.tps)
		p50 = append(p50, percentile(r.latUs, 50))
		p99 = append(p99, percentile(r.latUs, 99))
		setup = append(setup, r.setupS)
	}
	out["throughput_tps"] = metric{median(tps), "1/s"}
	out["commit_p50_us"] = metric{median(p50), "us"}
	out["commit_p99_us"] = metric{median(p99), "us"}
	out["setup_s"] = metric{median(setup), "s"}
	out["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}

// perLayer reports the median of every per-layer metric over the traced
// rounds, the set-up split over all probed rounds, and the overheads of
// tracing (probed vs traced throughput) and of the probe itself (unprobed
// vs probed throughput), each as a fraction of the slower side's rate.
func perLayer(rounds []*roundResult, out map[string]metric) {
	byMode := map[mode][]float64{}
	layers := map[string][]float64{}
	units := map[string]string{}
	var gen, reset []float64
	for _, r := range rounds {
		byMode[r.mode] = append(byMode[r.mode], r.tps)
		if r.mode != probeOff {
			gen = append(gen, r.generateS)
			reset = append(reset, r.resetS)
		}
		for k, v := range r.layers {
			layers[k] = append(layers[k], v.Value)
			units[k] = v.Unit
		}
	}
	for k, vs := range layers {
		out[k] = metric{median(vs), units[k]}
	}
	out["setup.generate_s"] = metric{median(gen), "s"}
	out["setup.reset_s"] = metric{median(reset), "s"}
	out["trace.overhead"] = metric{median(byMode[probeOn])/median(byMode[traced]) - 1, "ratio"}
	out["probe.overhead"] = metric{median(byMode[probeOff])/median(byMode[probeOn]) - 1, "ratio"}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// fail prints a failed result and returns the exit code: a run whose
// output check fails reports correct=false and no metrics.
func fail(w *workload, attempted, jobs int, err error) int {
	fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
	res := map[string]any{"correct": false, "attempted": max(attempted, jobs), "failed": jobs,
		"metrics": map[string]metric{}}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 1
}

func printResult(w *workload, seed int64, meta map[string]any, rounds []*roundResult, attempted int, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	committed := 0
	for _, r := range rounds {
		committed += r.committed
	}
	res := map[string]any{"correct": true, "attempted": attempted, "failed": attempted - committed,
		"metrics": metrics}
	saveResult(w, seed, meta, rounds, res)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// writeSpans writes the last traced round's spans of its first
// transactions as CSV under the build directory, in start order per
// transaction. Times are nanoseconds since the round began.
func writeSpans(w *workload, seed int64, rounds []*roundResult) {
	var spans []span
	for _, r := range rounds {
		if r.mode == traced {
			spans = r.spans
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].tx != spans[j].tx {
			return spans[i].tx < spans[j].tx
		}
		return spans[i].start < spans[j].start
	})
	var b strings.Builder
	b.WriteString("tx,span,start_ns,end_ns,decision,batch\n")
	for _, s := range spans {
		dec := ""
		if s.kind == spanTry {
			dec = s.dec.String()
		}
		fmt.Fprintf(&b, "%d,%s,%d,%d,%s,%d\n", s.tx, spanNames[s.kind], s.start, s.end, dec, s.n)
	}
	dir := filepath.Join(buildDir, "trace")
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", w.name, seed)), []byte(b.String()), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	}
}

// saveResult records the result with its run metadata under the build
// directory, one file per workload, seed and trace setting.
func saveResult(w *workload, seed int64, meta map[string]any, rounds []*roundResult, res map[string]any) {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
		return
	}
	type roundOut struct {
		Mode   string            `json:"mode"`
		TPS    float64           `json:"throughput_tps"`
		P50    float64           `json:"commit_p50_us"`
		P99    float64           `json:"commit_p99_us"`
		SetupS float64           `json:"setup_s"`
		Layers map[string]metric `json:"layers,omitempty"`
	}
	var rs []roundOut
	for _, r := range rounds {
		rs = append(rs, roundOut{modeNames[r.mode], r.tps, percentile(r.latUs, 50), percentile(r.latUs, 99), r.setupS, r.layers})
	}
	blob, err := json.MarshalIndent(map[string]any{"meta": meta, "result": res, "rounds": rs}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
		return
	}
	kind := "e2e"
	if meta["trace"] == true {
		kind = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", w.name, seed, kind)
	if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
	}
}
