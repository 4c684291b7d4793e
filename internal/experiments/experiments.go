// Package experiments drives every experiment in DESIGN.md's
// per-experiment index (T1–T4, F1–F5, E1–E15) and renders the tables
// recorded in EXPERIMENTS.md. cmd/ccbench is a thin CLI over this package;
// the root bench_test.go wraps each experiment in a testing.B benchmark.
package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/fixpoint"
	"optcc/internal/geometry"
	"optcc/internal/herbrand"
	"optcc/internal/info"
	"optcc/internal/locking"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/schedule"
	"optcc/internal/sim"
	"optcc/internal/storage"
	"optcc/internal/workload"
	"optcc/internal/wsr"
)

// Result is one experiment's rendered output.
type Result struct {
	ID     string
	Title  string
	Text   string // free-form sections (figures, narratives)
	Tables []*report.Table
}

// String renders the result for terminal output.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "─── %s: %s ───\n", r.ID, r.Title)
	if r.Text != "" {
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteByte('\n')
		}
	}
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the result for EXPERIMENTS.md.
func (r *Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	if r.Text != "" {
		fmt.Fprintf(&b, "```\n%s\n```\n\n", strings.TrimRight(r.Text, "\n"))
	}
	for _, t := range r.Tables {
		b.WriteString(t.Markdown())
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner func() (*Result, error)

// All returns every experiment keyed by ID, plus the display order.
func All() (map[string]Runner, []string) {
	m := map[string]Runner{
		"T1":  T1InformationBound,
		"T2":  T2SerialOptimal,
		"T3":  T3SerializationOptimal,
		"T4":  T4WeakSerialization,
		"F1":  F1WeaklySerializableHistory,
		"F2":  F2TwoPhaseTransformation,
		"F3":  F3ProgressSpace,
		"F4":  F4GeometryOfLocking,
		"F5":  F5TwoPhasePrimeTransformation,
		"E1":  E1FixpointHierarchy,
		"E2":  E2NoDelayProbability,
		"E3":  E3OnlineFixpoints,
		"E4":  E4SimulatedWaiting,
		"E5":  E5PolicyComparison,
		"E6":  E6TreeLocking,
		"E7":  E7DeadlockPolicies,
		"E8":  E8ShardScalability,
		"E9":  E9StorageBackend,
		"E10": E10BatchedDispatch,
		"E11": E11NativeTimestampOrdering,
		"E12": E12MultiversionReadScaling,
		"E13": E13DurableCommit,
		"E14": E14CheckpointedWAL,
		"E15": E15NativeSGTOCC,
	}
	order := []string{"T1", "T2", "T3", "T4", "F1", "F2", "F3", "F4", "F5", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}
	return m, order
}

// T1InformationBound verifies Theorem 1's bound P ⊆ ∩_{T'∈I} C(T') by
// computing, for the Figure 1 system, the optimal fixpoint at each
// information level and checking the nesting.
func T1InformationBound() (*Result, error) {
	sys := workload.Figure1()
	t := report.NewTable("optimal fixpoint per information level — figure1 (|H| = 3)",
		"level", "|P|", "|P|/|H|", "members")
	total := 0
	schedule.Enumerate(sys.Format(), func(core.Schedule) bool { total++; return true })
	prevMembers := map[string]bool{}
	first := true
	for _, level := range info.Levels() {
		o, err := info.NewOracle(sys, level)
		if err != nil {
			return nil, err
		}
		members := map[string]bool{}
		var names []string
		var iterErr error
		schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
			in, err := o.InFixpoint(h)
			if err != nil {
				iterErr = err
				return false
			}
			if in {
				members[h.Key()] = true
				names = append(names, h.String())
			}
			return true
		})
		if iterErr != nil {
			return nil, iterErr
		}
		if !first {
			for k := range prevMembers {
				if !members[k] {
					return nil, fmt.Errorf("T1: nesting violated at level %v", level)
				}
			}
		}
		first = false
		prevMembers = members
		t.AddRow(level.String(), len(members), report.Ratio(len(members), total), strings.Join(names, " "))
	}
	return &Result{
		ID:    "T1",
		Title: "Theorem 1 — information bounds fixpoint sets (nested along the information order)",
		Tables: []*report.Table{
			t,
		},
	}, nil
}

// T2SerialOptimal mechanizes the proof of Theorem 2: for every non-serial
// schedule of several formats, the constructed adversary system breaks it,
// so no scheduler with only the format can pass anything beyond serial.
func T2SerialOptimal() (*Result, error) {
	t := report.NewTable("Theorem 2 adversary coverage",
		"format", "|H|", "serial", "non-serial", "broken by adversary")
	for _, format := range [][]int{{2, 1}, {2, 2}, {1, 1, 1}, {3, 2}, {2, 2, 1}} {
		total, serial, broken := 0, 0, 0
		var err error
		schedule.Enumerate(format, func(h core.Schedule) bool {
			total++
			if h.IsSerial() {
				serial++
				return true
			}
			adv, aerr := info.BuildTheorem2Adversary(format, h)
			if aerr != nil {
				err = aerr
				return false
			}
			ok, cerr := core.ScheduleCorrect(adv, h)
			if cerr != nil {
				err = cerr
				return false
			}
			if !ok {
				broken++
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if broken != total-serial {
			return nil, fmt.Errorf("T2: %d of %d non-serial schedules survived the adversary for format %v",
				total-serial-broken, total-serial, format)
		}
		t.AddRow(fmt.Sprintf("%v", format), total, serial, total-serial, broken)
	}
	return &Result{
		ID:     "T2",
		Title:  "Theorem 2 — the serial scheduler is optimal at minimum information",
		Text:   "Every non-serial schedule is incorrect for the increment/double/decrement adversary with IC {x=0}.",
		Tables: []*report.Table{t},
	}, nil
}

// T3SerializationOptimal mechanizes Theorem 3: the Herbrand-IC adversary
// characterizes SR(T) exactly on representative syntaxes.
func T3SerializationOptimal() (*Result, error) {
	t := report.NewTable("Theorem 3 — Herbrand adversary vs SR(T)",
		"system", "|H|", "|SR|", "adversary-correct", "agree")
	// The exact characterization C(T') ∩ H = SR(T) holds in the paper's
	// pure model where every step is a general update (Section 2); with
	// Read/Write refinements a blind write can coincide with an omission
	// concatenation, making the adversary a sound over-approximation only.
	mkU := func(vars ...core.Var) core.Transaction {
		steps := make([]core.Step, len(vars))
		for i, v := range vars {
			steps[i] = core.Step{Var: v, Kind: core.Update}
		}
		return core.Transaction{Steps: steps}
	}
	syntaxes := []*core.System{
		syntaxOf(workload.Figure1()),
		syntaxOf(workload.Cross()),
		(&core.System{Name: "triple", Txs: []core.Transaction{mkU("x", "y"), mkU("x"), mkU("y")}}).Normalize(),
	}
	for _, sys := range syntaxes {
		checker, err := herbrand.NewChecker(sys)
		if err != nil {
			return nil, err
		}
		adv, err := info.NewHerbrandAdversary(sys, 0)
		if err != nil {
			return nil, err
		}
		total, sr, pass, agree := 0, 0, 0, 0
		schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
			total++
			s, _, serr := checker.Serializable(h)
			if serr != nil {
				err = serr
				return false
			}
			p, perr := adv.Correct(h)
			if perr != nil {
				err = perr
				return false
			}
			if s {
				sr++
			}
			if p {
				pass++
			}
			if s == p {
				agree++
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if agree != total {
			return nil, fmt.Errorf("T3: adversary disagrees with SR on %s", sys.Name)
		}
		t.AddRow(sys.Name, total, sr, pass, fmt.Sprintf("%d/%d", agree, total))
	}
	return &Result{
		ID:     "T3",
		Title:  "Theorem 3 — the serialization scheduler is optimal at complete syntactic information",
		Tables: []*report.Table{t},
	}, nil
}

// syntaxOf strips interpretations and IC, leaving pure syntax.
func syntaxOf(sys *core.System) *core.System {
	out := &core.System{Name: sys.Name + "-syntax"}
	for _, tx := range sys.Txs {
		steps := make([]core.Step, len(tx.Steps))
		for j, st := range tx.Steps {
			steps[j] = core.Step{Var: st.Var, Kind: st.Kind}
		}
		out.Txs = append(out.Txs, core.Transaction{Name: tx.Name, Steps: steps})
	}
	return out.Normalize()
}

// T4WeakSerialization verifies Theorem 4's gap on Figure 1: WSR strictly
// exceeds SR, and WSR membership is exactly what the weak serialization
// scheduler passes.
func T4WeakSerialization() (*Result, error) {
	sys := workload.Figure1()
	counts, err := fixpoint.Classify(sys, fixpoint.Options{WithWSR: true, WithCorrect: true})
	if err != nil {
		return nil, err
	}
	if !(counts.SR < counts.WSR) {
		return nil, fmt.Errorf("T4: expected SR < WSR on figure1, got SR=%d WSR=%d", counts.SR, counts.WSR)
	}
	return &Result{
		ID:     "T4",
		Title:  "Theorem 4 — weak serialization is optimal without the integrity constraints",
		Text:   "On Figure 1, SR misses the interleaved history but WSR (and hence the optimal scheduler without IC knowledge) passes all of H.",
		Tables: []*report.Table{counts.Table()},
	}, nil
}

// F1WeaklySerializableHistory reproduces the Figure 1 discussion: the
// history h = (T11, T21, T12) has a Herbrand value equal to no serial
// history, yet with the given interpretations it equals the serial history
// (T21, T11, T12).
func F1WeaklySerializableHistory() (*Result, error) {
	sys := workload.Figure1()
	h := core.Schedule{{Tx: 0, Idx: 0}, {Tx: 1, Idx: 0}, {Tx: 0, Idx: 1}}
	checker, err := herbrand.NewChecker(sys)
	if err != nil {
		return nil, err
	}
	f, err := checker.Final(h)
	if err != nil {
		return nil, err
	}
	sr, _, err := checker.Serializable(h)
	if err != nil {
		return nil, err
	}
	wc, err := wsr.NewChecker(sys, wsr.Options{})
	if err != nil {
		return nil, err
	}
	weak, witness, err := wc.Weak(h)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "history h = %s\n", h)
	fmt.Fprintf(&b, "Herbrand value of x: %s\n", f["x"])
	for order, key := range map[string][]int{"T1;T2": {0, 1}, "T2;T1": {1, 0}} {
		sf, err := checker.Final(core.SerialSchedule(sys.Format(), key))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "serial %s value of x: %s\n", order, sf["x"])
	}
	fmt.Fprintf(&b, "h ∈ SR(T): %v (as the paper shows, it is not)\n", sr)
	fmt.Fprintf(&b, "h ∈ WSR(T): %v, witnessed by serial order %v — with φ = (+1, ×2, +1), h ≡ (T21, T11, T12)\n", weak, witness)
	if sr || !weak {
		return nil, fmt.Errorf("F1: expected h ∉ SR and h ∈ WSR")
	}
	return &Result{ID: "F1", Title: "Figure 1 — a weakly serializable, non-serializable history", Text: b.String()}, nil
}

// F2TwoPhaseTransformation renders Figure 2: the 2PL transformation of the
// transaction (x, y, x, z).
func F2TwoPhaseTransformation() (*Result, error) {
	ls, err := locking.TwoPhase{}.Transform(figure2System())
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:    "F2",
		Title: "Figure 2 — locked transaction using 2PL",
		Text:  ls.Txs[0].String() + fmt.Sprintf("two-phase: %v, well-formed: %v\n", ls.TwoPhase(), ls.WellFormed()),
	}, nil
}

func figure2System() *core.System {
	return (&core.System{
		Name: "figure2",
		Txs: []core.Transaction{{Name: "Ti", Steps: []core.Step{
			{Var: "x", Kind: core.Update},
			{Var: "y", Kind: core.Update},
			{Var: "x", Kind: core.Update},
			{Var: "z", Kind: core.Update},
		}}},
	}).Normalize()
}

// F3ProgressSpace renders Figure 3: the progress space of two 2PL-locked
// transactions with opposite lock orders, showing blocks and the deadlock
// region D.
func F3ProgressSpace() (*Result, error) {
	ls, err := locking.TwoPhase{}.Transform(syntaxOf(workload.Cross()))
	if err != nil {
		return nil, err
	}
	sp, err := geometry.NewSpace(ls, 0, 1)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString(sp.Render(nil))
	fmt.Fprintf(&b, "deadlock region D: %v\n", sp.DeadlockRegion())
	if !sp.HasDeadlock() {
		return nil, fmt.Errorf("F3: expected a deadlock region")
	}
	return &Result{ID: "F3", Title: "Figure 3 — the progress space, blocks Bx/By and deadlock region D", Text: b.String()}, nil
}

// F4GeometryOfLocking reproduces the four panels of Figure 4:
// memorylessness, homotopy serializability, separation, and the 2PL common
// point.
func F4GeometryOfLocking() (*Result, error) {
	var b strings.Builder
	// (a)+(b)+(d): 2PL-locked cross system.
	ls, err := locking.TwoPhase{}.Transform(syntaxOf(workload.Cross()))
	if err != nil {
		return nil, err
	}
	sp, err := geometry.NewSpace(ls, 0, 1)
	if err != nil {
		return nil, err
	}
	u, ok := sp.CommonPoint()
	fmt.Fprintf(&b, "(d) 2PL blocks %v share common point u = %v: %v → no separating path: %v\n",
		sp.Blocks, u, ok, !sp.SeparatingPathExists())
	if !ok || sp.SeparatingPathExists() {
		return nil, fmt.Errorf("F4: 2PL common-point property violated")
	}
	// (c): per-access locking admits separation.
	perAccess := perAccessLocked()
	sp2, err := geometry.NewSpace(perAccess, 0, 1)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "(c) per-access locking blocks %v admit a separating (non-serializable) path: %v\n",
		sp2.Blocks, sp2.SeparatingPathExists())
	if !sp2.SeparatingPathExists() {
		return nil, fmt.Errorf("F4: per-access locking should admit separation")
	}
	// (b): homotopy check agrees with conflict serializability on every
	// complete path of the 2PL space (verified exhaustively in tests; here
	// we show one serial path).
	moves := make([]int, 0, sp.N1+sp.N2)
	for i := 0; i < sp.N1; i++ {
		moves = append(moves, 0)
	}
	for i := 0; i < sp.N2; i++ {
		moves = append(moves, 1)
	}
	path, err := sp.PathFromMoves(moves)
	if err != nil {
		return nil, err
	}
	okSer, err := sp.PathSerializable(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "(b) the serial path is homotopic to a serial schedule: %v\n", okSer)
	fmt.Fprintf(&b, "(a) memorylessness: histories (T1-op, T2-op) and (T2-op, T1-op) reach the same progress point\n")
	return &Result{ID: "F4", Title: "Figure 4 — geometries of locking", Text: b.String()}, nil
}

// perAccessLocked builds the non-two-phase lock-per-access system used for
// the separation panel.
func perAccessLocked() *locking.System {
	base := (&core.System{
		Txs: []core.Transaction{
			{Steps: []core.Step{{Var: "x", Kind: core.Update}, {Var: "y", Kind: core.Update}}},
			{Steps: []core.Step{{Var: "x", Kind: core.Update}, {Var: "y", Kind: core.Update}}},
		},
	}).Normalize()
	mk := func(tx int) locking.Tx {
		return locking.Tx{Name: fmt.Sprintf("T%d", tx+1), Ops: []locking.Op{
			{Kind: locking.OpLock, LV: "X"},
			{Kind: locking.OpStep, Step: core.StepID{Tx: tx, Idx: 0}},
			{Kind: locking.OpUnlock, LV: "X"},
			{Kind: locking.OpLock, LV: "Y"},
			{Kind: locking.OpStep, Step: core.StepID{Tx: tx, Idx: 1}},
			{Kind: locking.OpUnlock, LV: "Y"},
		}}
	}
	return &locking.System{Base: base, Policy: "per-access", Txs: []locking.Tx{mk(0), mk(1)}}
}

// F5TwoPhasePrimeTransformation renders Figure 5: the 2PL′ transformation
// of the same transaction as Figure 2.
func F5TwoPhasePrimeTransformation() (*Result, error) {
	ls, err := locking.TwoPhasePrime{X: "x"}.Transform(figure2System())
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:    "F5",
		Title: "Figure 5 — locked transaction using 2PL′",
		Text: ls.Txs[0].String() +
			fmt.Sprintf("two-phase: %v (2PL′ is deliberately not two-phase), well-formed: %v\n",
				ls.TwoPhase(), ls.WellFormed()),
	}, nil
}

// E1FixpointHierarchy computes the full hierarchy on the canonical
// systems.
func E1FixpointHierarchy() (*Result, error) {
	res := &Result{ID: "E1", Title: "Fixpoint hierarchy serial ⊆ CSR ⊆ SR ⊆ WSR ⊆ C(T) ⊆ H"}
	cases := []struct {
		sys  *core.System
		opts fixpoint.Options
	}{
		{workload.Figure1(), fixpoint.Options{WithWSR: true, WithCorrect: true}},
		{workload.Theorem2Adversary(), fixpoint.Options{WithWSR: true, WithCorrect: true}},
		{workload.Chain(), fixpoint.Options{WithWSR: true, WithCorrect: true}},
		{workload.Banking(), fixpoint.Options{WithCorrect: true}},
		{workload.Random(workload.RandomConfig{NumTxs: 3, MaxSteps: 2, NumVars: 2}, 1979), fixpoint.Options{WithWSR: true, WithCorrect: true}},
	}
	for _, c := range cases {
		counts, err := fixpoint.Classify(c.sys, c.opts)
		if err != nil {
			return nil, err
		}
		res.Tables = append(res.Tables, counts.Table())
	}
	return res, nil
}

// E2NoDelayProbability reports the Section 6 quantity |P|/|H| for each
// fixpoint class on the banking system: the probability a uniformly random
// request history is passed undelayed by the optimal scheduler of each
// class.
func E2NoDelayProbability() (*Result, error) {
	sys := workload.Banking()
	counts, err := fixpoint.Classify(sys, fixpoint.Options{WithCorrect: true})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("no-delay probability |P|/|H| — banking (|H| = 1260)",
		"scheduler (optimal for)", "|P|", "|P|/|H|")
	t.AddRow("serial (minimum info)", counts.Serial, report.Ratio(counts.Serial, counts.Total))
	t.AddRow("CSR certifier", counts.CSR, report.Ratio(counts.CSR, counts.Total))
	t.AddRow("serialization (syntactic info)", counts.SR, report.Ratio(counts.SR, counts.Total))
	t.AddRow("maximum information", counts.Correct, report.Ratio(counts.Correct, counts.Total))
	return &Result{ID: "E2", Title: "Section 6 — probability that no step waits", Tables: []*report.Table{t}}, nil
}

// E3OnlineFixpoints measures the realized fixpoint of each online
// scheduler against the theoretical classes.
func E3OnlineFixpoints() (*Result, error) {
	res := &Result{ID: "E3", Title: "Realized fixpoints of online schedulers vs theory"}
	for _, sys := range []*core.System{workload.Chain(), workload.LostUpdate(), workload.Cross()} {
		tbl, counts, err := fixpoint.OnlineCounts(sys, []online.Scheduler{
			online.NewSerial(),
			online.NewConservative2PL(),
			online.NewStrict2PL(lockmgr.Detect),
			online.NewSGT(),
			online.NewTO(),
			online.NewTOThomas(),
			online.NewOCC(),
		}, 0)
		if err != nil {
			return nil, err
		}
		if counts["serial"] > counts["strict-2pl/detect"] || counts["strict-2pl/detect"] > counts["sgt/delay"] {
			return nil, fmt.Errorf("E3: hierarchy violated on %s: %v", sys.Name, counts)
		}
		res.Tables = append(res.Tables, tbl)
	}
	return res, nil
}

// E4SimulatedWaiting runs the goroutine simulator: waiting time and
// throughput per scheduler as concurrency rises on a hot-spot workload.
func E4SimulatedWaiting() (*Result, error) {
	return e4WithScale(24, []int{2, 4, 8})
}

// E4Quick is a smaller variant for tests.
func E4Quick() (*Result, error) { return e4WithScale(8, []int{2, 4}) }

func e4WithScale(jobs int, userSweep []int) (*Result, error) {
	res := &Result{ID: "E4", Title: "Section 6 — simulated waiting time vs fixpoint richness (goroutine runtime)"}
	template := workload.Banking()
	scheds := func() []online.Scheduler {
		return []online.Scheduler{
			online.NewSerial(),
			online.NewStrict2PL(lockmgr.WoundWait),
			online.NewSGTAborting(),
			online.NewOCC(),
		}
	}
	for _, users := range userSweep {
		t := report.NewTable(fmt.Sprintf("banking, %d jobs, %d users", jobs, users),
			"scheduler", "committed", "aborts", "deadlock-breaks", "waits", "mean-wait-µs", "p95-wait-µs", "throughput-tx/s")
		for _, sched := range scheds() {
			inst := sim.Instantiate(template, jobs)
			m, err := sim.Run(sim.Config{
				System:   inst,
				Sched:    sched,
				Users:    users,
				ExecTime: 100 * time.Microsecond,
				Seed:     1979,
			})
			if err != nil {
				return nil, err
			}
			if m.Committed != jobs {
				return nil, fmt.Errorf("E4: %s committed %d of %d", sched.Name(), m.Committed, jobs)
			}
			t.AddRow(sched.Name(), m.Committed, m.Aborts, m.DeadlockBreaks,
				m.WaitNs.N(),
				m.WaitNs.Mean()/1e3,
				m.WaitNs.Percentile(95)/1e3,
				m.Throughput)
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// E5PolicyComparison compares locking policies by the size of their
// achievable output sets (Section 5.2's performance measure) on the
// systems where the paper's separations appear.
func E5PolicyComparison() (*Result, error) {
	mk := func(vars ...core.Var) core.Transaction {
		steps := make([]core.Step, len(vars))
		for i, v := range vars {
			steps[i] = core.Step{Var: v, Kind: core.Update}
		}
		return core.Transaction{Steps: steps}
	}
	cases := []struct {
		name string
		sys  *core.System
	}{
		{"prime-gap (T1=x,y T2=x T3=y)", (&core.System{Txs: []core.Transaction{mk("x", "y"), mk("x"), mk("y")}}).Normalize()},
		{"private-var (T1=y,x,p T2=y)", (&core.System{Txs: []core.Transaction{mk("y", "x", "p"), mk("y")}}).Normalize()},
		{"cross", syntaxOf(workload.Cross())},
	}
	res := &Result{ID: "E5", Title: "Section 5.4 — 2PL vs 2PL′ vs selective 2PL (achievable output sets)"}
	for _, c := range cases {
		total := 0
		schedule.Enumerate(c.sys.Format(), func(core.Schedule) bool { total++; return true })
		t := report.NewTable(fmt.Sprintf("%s (|H| = %d)", c.name, total),
			"policy", "separable", "|outputs|", "share of H")
		for _, p := range []locking.Policy{locking.TwoPhase{}, locking.TwoPhasePrime{X: "x"}, locking.Selective2PL{}} {
			ls, err := p.Transform(c.sys)
			if err != nil {
				return nil, err
			}
			outs, err := locking.Outputs(ls)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.Name(), p.Separable(), len(outs), report.Ratio(len(outs), total))
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// E6TreeLocking compares tree locking with strict 2PL on hierarchical
// path workloads, both by realized fixpoint and by simulated waiting.
func E6TreeLocking() (*Result, error) {
	res := &Result{ID: "E6", Title: "Section 5.5 — structured data: tree locking vs 2PL"}
	// Fixpoint comparison on a small two-path system.
	mk := func(path ...core.Var) core.Transaction {
		steps := make([]core.Step, len(path))
		for i, v := range path {
			steps[i] = core.Step{Var: v, Kind: core.Update,
				Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }}
		}
		return core.Transaction{Steps: steps}
	}
	small := (&core.System{
		Name: "two-paths",
		Txs:  []core.Transaction{mk("n0", "n1", "n3"), mk("n0", "n2", "n6")},
	}).Normalize()
	tbl, counts, err := fixpoint.OnlineCounts(small, []online.Scheduler{
		online.NewStrict2PL(lockmgr.Detect),
		online.NewTreeLock(),
	}, 0)
	if err != nil {
		return nil, err
	}
	if counts["tree-lock"] <= counts["strict-2pl/detect"] {
		return nil, fmt.Errorf("E6: tree lock (%d) should beat strict 2PL (%d) on paths", counts["tree-lock"], counts["strict-2pl/detect"])
	}
	res.Tables = append(res.Tables, tbl)
	// Simulation on a deeper tree.
	inst := sim.Instantiate(workload.PathWorkload(4, 3, 7), 18)
	t := report.NewTable("tree depth 4, 18 jobs, 6 users",
		"scheduler", "committed", "aborts", "waits", "mean-wait-µs", "throughput-tx/s")
	for _, sched := range []online.Scheduler{online.NewStrict2PL(lockmgr.WoundWait), online.NewTreeLock()} {
		m, err := sim.Run(sim.Config{System: inst, Sched: sched, Users: 6, ExecTime: 100 * time.Microsecond, Seed: 55})
		if err != nil {
			return nil, err
		}
		t.AddRow(sched.Name(), m.Committed, m.Aborts, m.WaitNs.N(), m.WaitNs.Mean()/1e3, m.Throughput)
	}
	res.Tables = append(res.Tables, t)
	return res, nil
}

// E7DeadlockPolicies is the design-choice ablation: the four deadlock
// handling strategies under a deadlock-prone workload.
func E7DeadlockPolicies() (*Result, error) {
	inst := sim.Instantiate(workload.Cross(), 16)
	t := report.NewTable("deadlock handling ablation — cross workload, 16 jobs, 8 users",
		"policy", "committed", "aborts", "deadlock-breaks", "waits", "mean-wait-µs", "throughput-tx/s")
	for _, policy := range []lockmgr.Policy{lockmgr.Detect, lockmgr.NoWait, lockmgr.WaitDie, lockmgr.WoundWait} {
		m, err := sim.Run(sim.Config{
			System:   inst,
			Sched:    online.NewStrict2PL(policy),
			Users:    8,
			ExecTime: 50 * time.Microsecond,
			Seed:     2024,
		})
		if err != nil {
			return nil, err
		}
		if m.Committed != 16 {
			return nil, fmt.Errorf("E7: %v committed %d of 16", policy, m.Committed)
		}
		t.AddRow(policy.String(), m.Committed, m.Aborts, m.DeadlockBreaks, m.WaitNs.N(), m.WaitNs.Mean()/1e3, m.Throughput)
	}
	return &Result{ID: "E7", Title: "Ablation — deadlock handling under strict 2PL", Tables: []*report.Table{t}}, nil
}

// E8Config parameterizes the shard-scalability experiment; cmd/ccbench
// overrides the sweeps via its -shards and -users flags.
var E8Config = struct {
	Jobs   int
	Users  []int
	Shards []int
}{Jobs: 32, Users: []int{4, 8}, Shards: []int{1, 4, 16}}

// E8ShardScalability measures the sharded scheduling runtime: throughput of
// the Mutexed strict 2PL baseline (one shard, every decision behind one
// lock) against the sharded engine (per-shard decision mutexes over the
// partitioned lock table) across shard count × user count × contention
// regime.
func E8ShardScalability() (*Result, error) {
	return e8WithScale(E8Config.Jobs, E8Config.Users, E8Config.Shards)
}

// E8Quick is a smaller variant for tests.
func E8Quick() (*Result, error) { return e8WithScale(12, []int{4}, []int{1, 4}) }

func e8WithScale(jobs int, userSweep, shardSweep []int) (*Result, error) {
	res := &Result{
		ID:    "E8",
		Title: "Sharded scheduling runtime — throughput vs shard count × users × contention",
		Text: "mutexed = one shard, every decision behind one lock (Section 6 funnel); " +
			"2pl-sharded(n) = per-shard decision mutexes over an n-shard lock table.",
	}
	regimes := []struct {
		name     string
		template *core.System
	}{
		{"low contention", workload.Random(workload.RandomConfig{
			NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 8 * jobs}, 1979)},
		{"high contention (hotspot)", workload.Random(workload.RandomConfig{
			NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 4, Hotspot: 1}, 1979)},
	}
	for _, reg := range regimes {
		for _, users := range userSweep {
			t := report.NewTable(fmt.Sprintf("%s, %d jobs, %d users", reg.name, jobs, users),
				"scheduler", "committed", "aborts", "deadlock-breaks", "mean-wait-µs", "throughput-tx/s")
			scheds := []online.ConcurrentScheduler{online.NewMutexed(online.NewStrict2PL(lockmgr.WoundWait))}
			for _, s := range shardSweep {
				scheds = append(scheds, online.NewConcurrentStrict2PL(lockmgr.WoundWait, s))
			}
			for _, sched := range scheds {
				inst := sim.Instantiate(reg.template, jobs)
				m, err := sim.Run(sim.Config{System: inst, Sched: sched, Users: users, Seed: 1979})
				if err != nil {
					return nil, err
				}
				if m.Committed != jobs {
					return nil, fmt.Errorf("E8: %s committed %d of %d", sched.Name(), m.Committed, jobs)
				}
				t.AddRow(sched.Name(), m.Committed, m.Aborts, m.DeadlockBreaks,
					m.WaitNs.Mean()/1e3, m.Throughput)
			}
			res.Tables = append(res.Tables, t)
		}
	}
	return res, nil
}

// E9Config parameterizes the storage-backend experiment; cmd/ccbench
// overrides Backend via its -backend flag.
var E9Config = struct {
	Jobs       int
	Users      int
	Shards     []int
	ValueSizes []int
	Backend    string
}{Jobs: 24, Users: 8, Shards: []int{1, 8}, ValueSizes: []int{64, 4096}, Backend: "kv"}

// NewBackend builds a storage backend by name (the storage.New registry)
// with the given shard count and uniform payload size.
func NewBackend(name string, shards, valueSize int) (storage.Backend, error) {
	return storage.New(name, storage.Config{Shards: shards, ValueSize: valueSize})
}

// NewStrictBackend is NewBackend with payload-buffer recycling enabled.
// Recycling is only sound under strict execution (see
// storage.Config.Recycle), so it is used by the sweeps whose schedulers
// are all strict — E9 and E10 run the strict 2PL family exclusively —
// while E11, which mixes in timestamp ordering, stays on NewBackend.
func NewStrictBackend(name string, shards, valueSize int) (storage.Backend, error) {
	return storage.New(name, storage.Config{Shards: shards, ValueSize: valueSize, Recycle: true})
}

// E9StorageBackend measures schedulers doing real work: every granted step
// reads and writes the storage backend (checksummed payload records,
// copy-on-write, undo-logged aborts) instead of sleeping, across value size
// × contention regime × shard count. It also asserts the replay invariant:
// the committed backend state must equal core.Exec of the committed
// schedule — all schedulers in the sweep are strict, so any divergence is
// an engine bug.
func E9StorageBackend() (*Result, error) {
	return e9WithScale(E9Config.Jobs, E9Config.Users, E9Config.Shards, E9Config.ValueSizes, E9Config.Backend)
}

// E9Quick is a smaller variant for tests.
func E9Quick() (*Result, error) { return e9WithScale(10, 4, []int{4}, []int{256}, E9Config.Backend) }

func e9WithScale(jobs, users int, shardSweep, valueSizes []int, backendName string) (*Result, error) {
	res := &Result{
		ID:    "E9",
		Title: "Real storage execution — schedulers on the " + backendName + " backend across value size × skew",
		Text: "Every granted step executes against the storage backend (checksummed reads, " +
			"copy-on-write writes, undo-logged aborts); execution time is real work, and the " +
			"committed state is verified against the serial replay of the committed schedule.",
	}
	regimes := []struct {
		name     string
		template *core.System
	}{
		{"uniform access", workload.Random(workload.RandomConfig{
			NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 4 * jobs}, 1979)},
		{"skewed access (hotspot)", workload.Random(workload.RandomConfig{
			NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 1979)},
	}
	for _, reg := range regimes {
		for _, valueSize := range valueSizes {
			t := report.NewTable(fmt.Sprintf("%s, %dB values, %d jobs, %d users", reg.name, valueSize, jobs, users),
				"scheduler", "committed", "aborts", "rollbacks", "mean-exec-µs", "mean-wait-µs", "MB-written", "throughput-tx/s")
			scheds := []online.ConcurrentScheduler{online.NewMutexed(online.NewStrict2PL(lockmgr.WoundWait))}
			for _, s := range shardSweep {
				scheds = append(scheds, online.NewConcurrentStrict2PL(lockmgr.WoundWait, s))
			}
			for _, sched := range scheds {
				be, err := NewStrictBackend(backendName, sched.NumShards(), valueSize)
				if err != nil {
					return nil, err
				}
				inst := sim.Instantiate(reg.template, jobs)
				m, err := sim.Run(sim.Config{System: inst, Sched: sched, Backend: be, Users: users, Seed: 1979})
				if err != nil {
					return nil, err
				}
				if m.Committed != jobs {
					return nil, fmt.Errorf("E9: %s committed %d of %d", sched.Name(), m.Committed, jobs)
				}
				replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
				if err != nil {
					return nil, fmt.Errorf("E9: %s replay: %w", sched.Name(), err)
				}
				if !be.State().Equal(replay) {
					return nil, fmt.Errorf("E9: %s backend state diverged from committed replay", sched.Name())
				}
				var rollbacks int64
				var mbWritten float64
				if kv, ok := be.(*storage.KV); ok {
					st := kv.Stats()
					rollbacks = st.Rollbacks
					mbWritten = float64(st.BytesWritten) / (1 << 20)
				}
				t.AddRow(sched.Name(), m.Committed, m.Aborts, rollbacks,
					m.ExecNs.Mean()/1e3, m.WaitNs.Mean()/1e3, mbWritten, m.Throughput)
			}
			res.Tables = append(res.Tables, t)
		}
	}
	return res, nil
}

// E10Config parameterizes the batched-dispatch experiment; cmd/ccbench
// overrides the sweeps via its -batch, -users and -shards flags.
var E10Config = struct {
	Jobs    int
	Users   []int
	Shards  []int
	Batches []int
	Backend string
}{Jobs: 64, Users: []int{16, 48}, Shards: []int{4}, Batches: []int{1, 8, 32}, Backend: "kv"}

// E10BatchedDispatch measures batched parked retries + group commit on the
// sharded runtime over batch size × users × shards, with real storage
// execution, on the two hot-shard regimes: lock-contended
// (workload.HotShard — every transaction hammers one hot variable pair, so
// run time is dominated by waiting and aborts, and the parked queues are
// long) and loop-contended (workload.HotShardDisjoint — all traffic on one
// shard's decision mutex but no lock conflicts, so run time is decision
// overhead). Users decide their own fresh requests one at a time; the
// batch size caps how many parked requests one retry offers the scheduler
// in one critical section. Every run commits through the group-commit
// pipeline and self-checks the replay invariant: the committed backend
// state must equal core.Exec of the committed schedule. The table titles
// predate the user-side decisions and are kept so snapshots stay
// comparable.
func E10BatchedDispatch() (*Result, error) {
	return e10WithScale(E10Config.Jobs, E10Config.Users, E10Config.Shards, E10Config.Batches, E10Config.Backend)
}

// E10Quick is a smaller variant for tests.
func E10Quick() (*Result, error) {
	return e10WithScale(12, []int{6}, []int{4}, []int{1, 8}, E10Config.Backend)
}

func e10WithScale(jobs int, userSweep, shardSweep, batchSweep []int, backendName string) (*Result, error) {
	res := &Result{
		ID:    "E10",
		Title: "Batched dispatch + group commit — throughput vs batch size × users × shards (hot-shard regimes)",
		Text: "users decide their own requests under the owning shard's decision mutex; batch caps " +
			"how many parked requests one retry decides in one critical section (batch=1: one at a " +
			"time). Every cell commits through the per-lane group-commit pipeline (async lock " +
			"release). The lock-contended regime is wait-dominated and builds parked queues; the " +
			"loop-contended regime has no lock conflicts, so nothing parks and batch size cannot matter.",
	}
	for _, shards := range shardSweep {
		regimes := []struct {
			name     string
			template *core.System
		}{
			{"lock-contended hot shard", workload.HotShard()},
			{"loop-contended hot shard (disjoint vars)", workload.HotShardDisjoint(jobs, shards)},
		}
		for _, reg := range regimes {
			for _, users := range userSweep {
				t := report.NewTable(fmt.Sprintf("%s, %d jobs, %d users, %d shards", reg.name, jobs, users, shards),
					"batch", "committed", "aborts", "deadlock-breaks", "mean-sched-µs", "mean-wait-µs", "group-size", "throughput-tx/s")
				for _, batch := range batchSweep {
					be, err := NewStrictBackend(backendName, shards, 256)
					if err != nil {
						return nil, err
					}
					inst := sim.Instantiate(reg.template, jobs)
					m, err := sim.Run(sim.Config{
						System: inst, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
						Backend: be, Users: users, Seed: 1979, Batch: batch,
					})
					if err != nil {
						return nil, err
					}
					if m.Committed != jobs {
						return nil, fmt.Errorf("E10: batch %d committed %d of %d", batch, m.Committed, jobs)
					}
					replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
					if err != nil {
						return nil, fmt.Errorf("E10: batch %d replay: %w", batch, err)
					}
					if !be.State().Equal(replay) {
						return nil, fmt.Errorf("E10: batch %d backend state diverged from committed replay", batch)
					}
					t.AddRow(batch, m.Committed, m.Aborts, m.DeadlockBreaks,
						m.SchedNs.Mean()/1e3, m.WaitNs.Mean()/1e3,
						m.GroupSize(), m.Throughput)
				}
				res.Tables = append(res.Tables, t)
			}
		}
	}
	return res, nil
}

// E11Config parameterizes the native-TO experiment; cmd/ccbench overrides
// the sweeps via its -shards and -users flags.
var E11Config = struct {
	Jobs        int
	Users       int
	Shards      []int
	Backend     string
	MaxRestarts int
}{Jobs: 48, Users: 12, Shards: []int{1, 4}, Backend: "kv", MaxRestarts: 10000}

// E11NativeTimestampOrdering measures the natively concurrent
// timestamp-ordering scheduler (online.ConcurrentTO: lock-free sharded
// atomic timestamp table, no per-shard mutex, no ordering rail) against
// the Sharded(TO) combinator (single-threaded TO per shard behind shard
// mutexes plus the striped cross-shard rail) and natively sharded strict
// 2PL, across shard count × access skew.
//
// Self-checks per cell: on the disjoint regime every granted step executes
// against the storage backend and the committed state must equal core.Exec
// of the committed schedule — with zero cross-transaction conflicts the
// invariant holds for every scheduler, timestamp-ordered ones included. On
// the skewed regime (real conflicts, where non-strict TO execution may
// legitimately diverge from the committed replay — see internal/storage)
// the check is the schedulers' contract instead: all jobs commit and the
// committed schedule is conflict-serializable.
func E11NativeTimestampOrdering() (*Result, error) {
	return e11WithScale(E11Config.Jobs, E11Config.Users, E11Config.Shards, E11Config.Backend, E11Config.MaxRestarts)
}

// E11Quick is a smaller variant for tests.
func E11Quick() (*Result, error) {
	return e11WithScale(12, 4, []int{2}, E11Config.Backend, E11Config.MaxRestarts)
}

func e11WithScale(jobs, users int, shardSweep []int, backendName string, maxRestarts int) (*Result, error) {
	res := &Result{
		ID:    "E11",
		Title: "Native timestamp ordering — ConcurrentTO vs Sharded(TO) vs strict 2PL across shards × skew",
		Text: "cto(n) = natively concurrent TO (lock-free sharded atomic timestamp table, no rail); " +
			"sharded(n)/to = single-threaded TO per shard behind shard mutexes + the striped ordering rail; " +
			"2pl-sharded(n) = natively sharded strict 2PL. The disjoint regime self-checks committed state " +
			"== committed replay on the storage backend; the skewed regime (real conflicts) self-checks " +
			"conflict-serializability of the committed schedule.",
	}
	regimes := []struct {
		name     string
		disjoint bool
		template *core.System
	}{
		{"disjoint across shards", true, workload.Disjoint(jobs, 3)},
		{"skewed access (hotspot)", false, workload.Random(workload.RandomConfig{
			NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 8, Hotspot: 1}, 1979)},
	}
	for _, reg := range regimes {
		t := report.NewTable(fmt.Sprintf("%s, %d jobs, %d users", reg.name, jobs, users),
			"scheduler", "committed", "aborts", "mean-sched-µs", "mean-wait-µs", "throughput-tx/s", "self-check")
		for _, shards := range shardSweep {
			scheds := []online.Scheduler{
				online.NewConcurrentTO(shards),
				online.NewSharded(shards, func() online.Scheduler { return online.NewTO() }),
				online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
			}
			for _, sched := range scheds {
				cfg := sim.Config{System: sim.Instantiate(reg.template, jobs), Sched: sched,
					Users: users, Seed: 1979, MaxRestarts: maxRestarts}
				check := "schedule CSR"
				if reg.disjoint {
					be, err := NewBackend(backendName, shards, 256)
					if err != nil {
						return nil, err
					}
					cfg.Backend = be
					check = "state==replay"
				}
				m, err := sim.Run(cfg)
				if err != nil {
					return nil, err
				}
				if m.Committed != jobs {
					return nil, fmt.Errorf("E11: %s committed %d of %d on %s", sched.Name(), m.Committed, jobs, reg.name)
				}
				if reg.disjoint {
					replay, err := core.Exec(cfg.System, m.Output, cfg.System.InitialStates()[0])
					if err != nil {
						return nil, fmt.Errorf("E11: %s replay: %w", sched.Name(), err)
					}
					if !cfg.Backend.State().Equal(replay) {
						return nil, fmt.Errorf("E11: %s backend state diverged from committed replay", sched.Name())
					}
				} else {
					csr, _, err := conflict.Serializable(cfg.System, m.Output)
					if err != nil {
						return nil, fmt.Errorf("E11: %s output check: %w", sched.Name(), err)
					}
					if !csr {
						return nil, fmt.Errorf("E11: %s committed a non-conflict-serializable schedule", sched.Name())
					}
				}
				t.AddRow(sched.Name(), m.Committed, m.Aborts,
					m.SchedNs.Mean()/1e3, m.WaitNs.Mean()/1e3, m.Throughput, check)
			}
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// E12Config parameterizes the multiversion read-scaling experiment;
// cmd/ccbench overrides the sweeps via its -shards, -users and -readfrac
// flags.
var E12Config = struct {
	Jobs        int
	Users       int
	Shards      int
	ReadFracs   []float64
	MaxRestarts int
}{Jobs: 64, Users: 16, Shards: 4, ReadFracs: []float64{0.5, 0.9, 0.99}, MaxRestarts: 10000}

// E12MultiversionReadScaling sweeps the read-mostly workload's read
// fraction at high skew (every transaction hammers a tiny hot set) across
// the multiversion scheduler, natively sharded strict 2PL and native
// timestamp ordering, all on the version-chain KV. Under mv, read-only
// transactions never enter the grant machinery — the runtime serves them
// from pinned storage snapshots with zero locks — so read throughput stays
// flat as the writer mix grows; under 2pl the same readers take read locks
// on the hot set and collapse against the writers' exclusive locks.
//
// Self-checks per cell: everything commits, and for mv and 2pl the
// committed backend state must equal core.Exec of the committed schedule —
// mv holds write claims to commit and its writers are pure increments, so
// its write set executes strictly (the snapshot-served read-only
// transactions are appended to close the schedule; all-Read, they cannot
// move state). cto's conflicting writes are not strict, so its check is
// conflict-serializability of the committed schedule instead (see E11).
func E12MultiversionReadScaling() (*Result, error) {
	return e12WithScale(E12Config.Jobs, E12Config.Users, E12Config.Shards, E12Config.ReadFracs, E12Config.MaxRestarts)
}

// E12Quick is a smaller variant for tests.
func E12Quick() (*Result, error) {
	return e12WithScale(16, 4, 2, []float64{0.5, 0.9}, E12Config.MaxRestarts)
}

func e12WithScale(jobs, users, shards int, readFracs []float64, maxRestarts int) (*Result, error) {
	res := &Result{
		ID:    "E12",
		Title: "Multiversion read scaling — mv vs strict 2PL vs cto across read fraction at high skew",
		Text: "mv(n) = multiversion/optimistic scheduler: read-only transactions served from pinned " +
			"lock-free storage snapshots, writers claim-then-commit with first-writer-wins; " +
			"2pl-sharded(n) = natively sharded strict 2PL; cto(n) = native timestamp ordering. " +
			"snap-reads counts reads served by the snapshot path, ver-gced the superseded versions " +
			"collected. Self-check per cell: state==replay for mv and 2pl (strict write sets), " +
			"schedule CSR for cto.",
	}
	for _, rf := range readFracs {
		template := workload.ReadMostly(workload.ReadMostlyConfig{
			Jobs: jobs, Steps: 4, ReadFrac: rf, Vars: 32, HotFrac: 0.9, HotVars: 2}, 1979)
		t := report.NewTable(fmt.Sprintf("readfrac %.2f, %d jobs, %d users, %d shards", rf, jobs, users, shards),
			"scheduler", "committed", "aborts", "snap-reads", "ver-gced", "throughput-tx/s", "self-check")
		scheds := []online.Scheduler{
			online.NewConcurrentMV(shards),
			online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
			online.NewConcurrentTO(shards),
		}
		for _, sched := range scheds {
			be, err := NewBackend("kv", shards, 256)
			if err != nil {
				return nil, err
			}
			cfg := sim.Config{System: sim.Instantiate(template, jobs), Sched: sched,
				Backend: be, Users: users, Seed: 1979, MaxRestarts: maxRestarts}
			m, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			if m.Committed != jobs {
				return nil, fmt.Errorf("E12: %s committed %d of %d at readfrac %.2f", sched.Name(), m.Committed, jobs, rf)
			}
			check := "state==replay"
			if _, isTO := sched.(*online.ConcurrentTO); isTO {
				check = "schedule CSR"
				csr, _, err := conflict.Serializable(cfg.System, m.Output)
				if err != nil {
					return nil, fmt.Errorf("E12: %s output check: %w", sched.Name(), err)
				}
				if !csr {
					return nil, fmt.Errorf("E12: %s committed a non-conflict-serializable schedule", sched.Name())
				}
			} else {
				// Close the schedule for replay: read-only transactions the
				// snapshot path served are absent from Output (they produce
				// no granted steps); all-Read, appending them cannot move
				// the replayed state.
				full := append([]core.StepID{}, m.Output...)
				seen := make([]int, cfg.System.NumTxs())
				for _, id := range m.Output {
					seen[id.Tx]++
				}
				for tx := range seen {
					if seen[tx] == 0 {
						for idx := range cfg.System.Txs[tx].Steps {
							full = append(full, core.StepID{Tx: tx, Idx: idx})
						}
					}
				}
				replay, err := core.Exec(cfg.System, full, cfg.System.InitialStates()[0])
				if err != nil {
					return nil, fmt.Errorf("E12: %s replay: %w", sched.Name(), err)
				}
				if !be.State().Equal(replay) {
					return nil, fmt.Errorf("E12: %s backend state diverged from committed replay at readfrac %.2f", sched.Name(), rf)
				}
			}
			t.AddRow(sched.Name(), m.Committed, m.Aborts, m.SnapshotReads, m.VersionGCed,
				m.Throughput, check)
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// E13Config parameterizes the durable-commit experiment; cmd/ccbench
// overrides the sweeps via its -fsync, -batch, -users and -shards flags.
var E13Config = struct {
	Jobs    int
	Users   int
	Shards  int
	Batches []int
	Fsyncs  []string
}{Jobs: 128, Users: 16, Shards: 4, Batches: []int{1, 8, 32}, Fsyncs: []string{"always", "group", "never"}}

// E13DurableCommit measures the durable disk backend (append-only
// checksummed WAL segments of commit records, redo-only recovery) across
// fsync policy × batch size on the conflict-free disjoint workload, where
// run time is dispatch + durability cost — exactly what fsync policy and
// group commit move. Two schedulers run the sweep: natively sharded strict
// 2PL and native timestamp ordering (non-strict, recoverable because
// uncommitted writes never reach the log). fsync=always syncs inside every
// commit; fsync=group defers
// to the group-commit pipeline, one fsync per drained lane group —
// batching grows the groups, so the fsync count collapses; fsync=never
// leaves flushing to the OS (crash may lose commits, never tear them).
//
// Self-checks per cell: everything commits; the live backend state equals
// core.Exec of the committed schedule; and — the durability core — after
// Close the store is reopened with OpenDisk and the recovered state must
// equal that same replay with a clean (untruncated) log. A cell whose
// recovery diverges fails the experiment.
func E13DurableCommit() (*Result, error) {
	return e13WithScale(E13Config.Jobs, E13Config.Users, E13Config.Shards, E13Config.Batches, E13Config.Fsyncs)
}

// E13Quick is a smaller variant for tests.
func E13Quick() (*Result, error) {
	return e13WithScale(12, 4, 2, []int{1, 8}, []string{"always", "group"})
}

func e13WithScale(jobs, users, shards int, batches []int, fsyncs []string) (*Result, error) {
	res := &Result{
		ID:    "E13",
		Title: "Durable commit — fsync policy × batch size on the WAL disk backend (2PL and cto)",
		Text: "Disjoint workload (zero conflicts): run time is dispatch + durability cost. " +
			"fsync=always pays one fsync per commit; fsync=group pays one per drained commit " +
			"group (batching grows the groups); fsync=never defers to the OS. Self-check per " +
			"cell: live state == committed replay == state recovered by OpenDisk after Close, " +
			"with a clean log tail.",
	}
	template := workload.Disjoint(jobs, 3)
	scheds := []struct {
		name string
		mk   func() online.Scheduler
	}{
		{"2pl-sharded", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards) }},
		{"cto", func() online.Scheduler { return online.NewConcurrentTO(shards) }},
	}
	for _, sc := range scheds {
		t := report.NewTable(fmt.Sprintf("%s, %d jobs, %d users, %d shards", sc.name, jobs, users, shards),
			"fsync", "batch", "committed", "fsyncs", "wal-KB", "group-size", "throughput-tx/s", "self-check")
		// throughput[fsync][batch], for the group-vs-always amortization
		// summary appended to the text.
		tp := map[string]map[int]float64{}
		for _, fs := range fsyncs {
			policy, err := storage.ParseFsyncPolicy(fs)
			if err != nil {
				return nil, fmt.Errorf("E13: %w", err)
			}
			tp[fs] = map[int]float64{}
			for _, batch := range batches {
				be, err := storage.NewDisk(storage.Config{Fsync: policy})
				if err != nil {
					return nil, fmt.Errorf("E13: %w", err)
				}
				inst := sim.Instantiate(template, jobs)
				m, err := sim.Run(sim.Config{
					System: inst, Sched: sc.mk(), Backend: be,
					Users: users, Seed: 1979, Batch: batch,
				})
				if err != nil {
					be.Destroy()
					return nil, fmt.Errorf("E13: %s fsync=%s batch=%d: %w", sc.name, fs, batch, err)
				}
				if m.Committed != jobs {
					be.Destroy()
					return nil, fmt.Errorf("E13: %s fsync=%s batch=%d committed %d of %d", sc.name, fs, batch, m.Committed, jobs)
				}
				replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
				if err != nil {
					be.Destroy()
					return nil, fmt.Errorf("E13: %s fsync=%s batch=%d replay: %w", sc.name, fs, batch, err)
				}
				if !be.State().Equal(replay) {
					be.Destroy()
					return nil, fmt.Errorf("E13: %s fsync=%s batch=%d live state diverged from committed replay", sc.name, fs, batch)
				}
				dir := be.Dir()
				if err := be.Close(); err != nil {
					return nil, fmt.Errorf("E13: %s fsync=%s batch=%d close: %w", sc.name, fs, batch, err)
				}
				r, err := storage.OpenDisk(storage.Config{Dir: dir})
				if err != nil {
					return nil, fmt.Errorf("E13: %s fsync=%s batch=%d recovery: %w", sc.name, fs, batch, err)
				}
				recovered := r.State()
				truncated := r.DurabilityStats().WALTruncated
				r.Destroy()
				if !recovered.Equal(replay) {
					return nil, fmt.Errorf("E13: %s fsync=%s batch=%d recovered state diverged from committed replay", sc.name, fs, batch)
				}
				if truncated != 0 {
					return nil, fmt.Errorf("E13: %s fsync=%s batch=%d clean shutdown recovered a truncated log", sc.name, fs, batch)
				}
				tp[fs][batch] = m.Throughput
				t.AddRow(fs, batch, m.Committed, m.Fsyncs, float64(m.WALBytes)/1024,
					m.GroupSize(), m.Throughput, "recovered==replay")
			}
		}
		res.Tables = append(res.Tables, t)
		// The amortization headline: grouped fsync vs per-commit fsync at
		// each batch size that actually batches.
		for _, batch := range batches {
			if batch < 8 {
				continue
			}
			if always, group := tp["always"][batch], tp["group"][batch]; always > 0 && group > 0 {
				res.Text += fmt.Sprintf("\n%s batch %d: fsync=group throughput %.1fx fsync=always.",
					sc.name, batch, group/always)
			}
		}
	}
	return res, nil
}

// E14Config parameterizes the checkpointing experiment; cmd/ccbench
// overrides the interval sweep via its -checkpoint flag. The intervals are
// sized to the redo-only log: a 1024-job run appends about 35 KB, so even
// the largest default interval checkpoints at the top volume.
var E14Config = struct {
	Volumes      []int // committed-transaction volumes (jobs per run)
	Users        int
	Shards       int
	Batch        int
	SegmentBytes int
	Intervals    []int // CheckpointBytes values; 0 = checkpointing off
}{Volumes: []int{128, 1024}, Users: 16, Shards: 4, Batch: 8,
	SegmentBytes: 4096, Intervals: []int{0, 4096, 16384}}

// E14CheckpointedWAL measures the online fuzzy checkpointer: checkpoint
// interval × commit volume on the disjoint workload, reporting the
// post-run on-disk footprint (segments + checkpoint files) and what the
// subsequent OpenDisk actually had to replay. Without checkpointing
// (interval 0) both grow linearly with commit volume — the log IS the
// database, and it only shrinks at recovery. With the checkpointer armed,
// sealed segments behind each durable checkpoint marker are retired
// online, so footprint and recovery work stay near one interval's worth
// regardless of how much history the run committed — the property that
// lets a disk backend run forever.
//
// Self-checks per cell: everything commits; the live state equals the
// committed replay; recovery after a clean Close reproduces it exactly
// with an untruncated log; the checkpointer is never degraded
// (CheckpointerOff) on a healthy filesystem; and checkpointed cells at
// the top volume must have completed at least one checkpoint, retired at
// least one segment, and ended with a strictly smaller footprint than the
// interval-0 control at the same volume.
func E14CheckpointedWAL() (*Result, error) {
	return e14WithScale(E14Config.Volumes, E14Config.Users, E14Config.Shards,
		E14Config.Batch, E14Config.SegmentBytes, E14Config.Intervals)
}

// E14Quick is a smaller variant for tests.
func E14Quick() (*Result, error) {
	return e14WithScale([]int{256}, 4, 2, 8, 2048, []int{0, 8192})
}

func e14WithScale(volumes []int, users, shards, batch, segBytes int, intervals []int) (*Result, error) {
	res := &Result{
		ID:    "E14",
		Title: "Online fuzzy checkpointing — interval × commit volume on the WAL disk backend",
		Text: "Disjoint workload under sharded strict 2PL (redo-only commit records, group " +
			"commit). interval is Config.CheckpointBytes: WAL bytes between background fuzzy " +
			"checkpoints (0 = off). footprint is the on-disk bytes (segments + checkpoint " +
			"files) after a clean Close; recovery-KB is what the subsequent OpenDisk replayed " +
			"(checkpoint + log tail). Self-check per cell: live state == committed replay == " +
			"recovered state, clean log, checkpointer healthy; checkpointed cells must beat " +
			"the interval-0 footprint at the top volume.",
	}
	t := report.NewTable(fmt.Sprintf("%d users, %d shards, batch %d, %dB segments", users, shards, batch, segBytes),
		"interval-B", "jobs", "committed", "checkpoints", "segs-retired", "footprint-KB", "recovery-KB", "recovery", "throughput-tx/s", "self-check")
	// footprint[interval][volume], for the bounded-footprint check and the
	// headline appended to the text.
	footKB := map[int]map[int]float64{}
	type ckptCell struct{ interval, volume int }
	var checkpointed []ckptCell
	for _, interval := range intervals {
		footKB[interval] = map[int]float64{}
		for _, volume := range volumes {
			label := fmt.Sprintf("interval=%d volume=%d", interval, volume)
			be, err := storage.NewDisk(storage.Config{
				Fsync: storage.FsyncGroup, SegmentBytes: segBytes, CheckpointBytes: interval,
			})
			if err != nil {
				return nil, fmt.Errorf("E14: %w", err)
			}
			template := workload.Disjoint(volume, 3)
			inst := sim.Instantiate(template, volume)
			m, err := sim.Run(sim.Config{
				System: inst, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
				Backend: be, Users: users, Seed: 1979, Batch: batch,
			})
			if err != nil {
				be.Destroy()
				return nil, fmt.Errorf("E14: %s: %w", label, err)
			}
			if m.Committed != volume {
				be.Destroy()
				return nil, fmt.Errorf("E14: %s committed %d of %d", label, m.Committed, volume)
			}
			replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
			if err != nil {
				be.Destroy()
				return nil, fmt.Errorf("E14: %s replay: %w", label, err)
			}
			if !be.State().Equal(replay) {
				be.Destroy()
				return nil, fmt.Errorf("E14: %s live state diverged from committed replay", label)
			}
			dir := be.Dir()
			if err := be.Close(); err != nil {
				return nil, fmt.Errorf("E14: %s close: %w", label, err)
			}
			// Close stops the background checkpointer and drains any attempt
			// still in flight; read the checkpoint counters only now, so the
			// table never shows a half-finished checkpoint.
			dsRun := be.DurabilityStats()
			if dsRun.CheckpointerOff {
				return nil, fmt.Errorf("E14: %s checkpointer degraded on a healthy filesystem", label)
			}
			files, bytes, err := walFootprint(dir)
			if err != nil {
				return nil, fmt.Errorf("E14: %s footprint: %w", label, err)
			}
			r, err := storage.OpenDisk(storage.Config{Dir: dir})
			if err != nil {
				return nil, fmt.Errorf("E14: %s recovery: %w", label, err)
			}
			recovered := r.State()
			ds := r.DurabilityStats()
			r.Destroy()
			if !recovered.Equal(replay) {
				return nil, fmt.Errorf("E14: %s recovered state diverged from committed replay", label)
			}
			if ds.WALTruncated != 0 {
				return nil, fmt.Errorf("E14: %s clean shutdown recovered a truncated log", label)
			}
			if interval > 0 && dsRun.Checkpoints > 0 {
				checkpointed = append(checkpointed, ckptCell{interval, volume})
			}
			footKB[interval][volume] = float64(bytes) / 1024
			t.AddRow(interval, volume, m.Committed, dsRun.Checkpoints, dsRun.SegmentsRetired,
				fmt.Sprintf("%.1f (%d files)", float64(bytes)/1024, files),
				float64(ds.RecoveryBytes)/1024, time.Duration(ds.RecoveryNs), m.Throughput,
				"recovered==replay")
		}
	}
	res.Tables = append(res.Tables, t)
	// The bounded-footprint check and headline: at the top volume, every
	// checkpointed interval must beat the interval-0 control, and at least
	// one checkpointed cell must exist at all (a sweep whose checkpointer
	// never fired would be vacuous).
	top := volumes[len(volumes)-1]
	hasControl := footKB[0] != nil && footKB[0][top] > 0
	anyTop := false
	for _, c := range checkpointed {
		if c.volume != top {
			continue
		}
		anyTop = true
		if hasControl && footKB[c.interval][top] >= footKB[0][top] {
			return nil, fmt.Errorf("E14: interval=%d footprint %.1fKB not below the interval-0 control %.1fKB at volume %d",
				c.interval, footKB[c.interval][top], footKB[0][top], top)
		}
		if hasControl {
			res.Text += fmt.Sprintf("\ninterval %dB at %d jobs: footprint %.1fKB vs %.1fKB unchecked (%.1fx smaller).",
				c.interval, top, footKB[c.interval][top], footKB[0][top], footKB[0][top]/footKB[c.interval][top])
		}
	}
	if len(checkpointed) > 0 && !anyTop {
		return nil, fmt.Errorf("E14: checkpointer fired only below the top volume; sweep misconfigured")
	}
	if hasControl && len(intervals) > 1 && len(checkpointed) == 0 {
		return nil, fmt.Errorf("E14: no cell completed a checkpoint; intervals %v too coarse for volumes %v", intervals, volumes)
	}
	return res, nil
}

// walFootprint sums the disk backend's on-disk files (segments and
// checkpoint files; the advisory LOCK file is bookkeeping, not state).
func walFootprint(dir string) (files int, bytes int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		if e.IsDir() || e.Name() == "LOCK" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		files++
		bytes += info.Size()
	}
	return files, bytes, nil
}

// E15Config parameterizes the native SGT/OCC experiment; cmd/ccbench
// overrides the sweeps via its -shards and -users flags.
var E15Config = struct {
	Jobs        int
	Users       int
	Shards      []int
	Backend     string
	MaxRestarts int
}{Jobs: 48, Users: 12, Shards: []int{1, 4}, Backend: "kv", MaxRestarts: 10000}

// E15NativeSGTOCC measures the natively concurrent serialization-graph
// and optimistic schedulers (online.ConcurrentSGT on the striped
// union-find component graph, online.ConcurrentOCC on epoch-based
// backward validation) against their Sharded counterparts (single-threaded
// SGT/OCC per shard behind shard mutexes plus the striped cross-shard
// rail), with the natively concurrent TO and strict 2PL as the PR 4/5
// reference points, across shard count × access skew.
//
// Self-checks per cell mirror E11: on the disjoint regime every granted
// step executes against the storage backend and the committed state must
// equal core.Exec of the committed schedule; on the skewed regime (real
// conflicts, where non-strict execution may legitimately diverge from the
// committed replay — see internal/storage) the check is the schedulers'
// contract instead: all jobs commit and the committed schedule is
// conflict-serializable.
func E15NativeSGTOCC() (*Result, error) {
	return e15WithScale(E15Config.Jobs, E15Config.Users, E15Config.Shards, E15Config.Backend, E15Config.MaxRestarts)
}

// E15Quick is a smaller variant for tests.
func E15Quick() (*Result, error) {
	return e15WithScale(12, 4, []int{2}, E15Config.Backend, E15Config.MaxRestarts)
}

func e15WithScale(jobs, users int, shardSweep []int, backendName string, maxRestarts int) (*Result, error) {
	res := &Result{
		ID:    "E15",
		Title: "Native SGT + OCC — striped serialization graph and epoch validation vs Sharded(SGT)/Sharded(OCC) across shards × skew",
		Text: "csgt(n)/abort = natively concurrent SGT (striped union-find component graph, lock-free " +
			"zero-conflict grants); cocc(n)/backward = natively concurrent OCC (epoch-based backward " +
			"validation, no global critical section); sharded(n)/sgt|occ = the single-threaded originals " +
			"per shard behind shard mutexes + the striped ordering rail; cto(n) and 2pl-sharded(n) are the " +
			"natively concurrent reference points. The disjoint regime self-checks committed state == " +
			"committed replay on the storage backend; the skewed regime (real conflicts) self-checks " +
			"conflict-serializability of the committed schedule.",
	}
	regimes := []struct {
		name     string
		disjoint bool
		template *core.System
	}{
		{"disjoint across shards", true, workload.Disjoint(jobs, 3)},
		{"skewed access (hotspot)", false, workload.Random(workload.RandomConfig{
			NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 8, Hotspot: 1}, 1979)},
	}
	for _, reg := range regimes {
		t := report.NewTable(fmt.Sprintf("%s, %d jobs, %d users", reg.name, jobs, users),
			"scheduler", "committed", "aborts", "mean-sched-µs", "mean-wait-µs", "throughput-tx/s", "self-check")
		for _, shards := range shardSweep {
			scheds := []online.Scheduler{
				online.NewConcurrentSGTAborting(shards),
				online.NewSharded(shards, func() online.Scheduler { return online.NewSGTAborting() }),
				online.NewConcurrentOCC(shards),
				online.NewSharded(shards, func() online.Scheduler { return online.NewOCC() }),
				online.NewConcurrentTO(shards),
				online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
			}
			for _, sched := range scheds {
				cfg := sim.Config{System: sim.Instantiate(reg.template, jobs), Sched: sched,
					Users: users, Seed: 1979, MaxRestarts: maxRestarts}
				check := "schedule CSR"
				if reg.disjoint {
					be, err := NewBackend(backendName, shards, 256)
					if err != nil {
						return nil, err
					}
					cfg.Backend = be
					check = "state==replay"
				}
				m, err := sim.Run(cfg)
				if err != nil {
					return nil, err
				}
				if m.Committed != jobs {
					return nil, fmt.Errorf("E15: %s committed %d of %d on %s", sched.Name(), m.Committed, jobs, reg.name)
				}
				if reg.disjoint {
					replay, err := core.Exec(cfg.System, m.Output, cfg.System.InitialStates()[0])
					if err != nil {
						return nil, fmt.Errorf("E15: %s replay: %w", sched.Name(), err)
					}
					if !cfg.Backend.State().Equal(replay) {
						return nil, fmt.Errorf("E15: %s backend state diverged from committed replay", sched.Name())
					}
				} else {
					csr, _, err := conflict.Serializable(cfg.System, m.Output)
					if err != nil {
						return nil, fmt.Errorf("E15: %s output check: %w", sched.Name(), err)
					}
					if !csr {
						return nil, fmt.Errorf("E15: %s committed a non-conflict-serializable schedule", sched.Name())
					}
				}
				t.AddRow(sched.Name(), m.Committed, m.Aborts,
					m.SchedNs.Mean()/1e3, m.WaitNs.Mean()/1e3, m.Throughput, check)
			}
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// RunAll executes every experiment in order and returns the results.
func RunAll() ([]*Result, error) {
	m, order := All()
	var out []*Result
	for _, id := range order {
		r, err := m[id]()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	m, _ := All()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
