// Package report provides the small output layer shared by cmd/ccbench,
// the examples and EXPERIMENTS.md: aligned ASCII tables, streaming
// statistics (Welford mean/variance) and fixed-capacity histograms with
// percentile queries.
package report

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// Headers returns a copy of the column headers (for machine-readable
// renderings like ccbench -json).
func (t *Table) Headers() []string {
	return append([]string(nil), t.headers...)
}

// Rows returns a copy of the rendered data rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.headers, " | "))
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Stats accumulates streaming mean and variance (Welford's algorithm) plus
// min and max.
type Stats struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records an observation.
func (s *Stats) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Stats) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Stats) Mean() float64 { return s.mean }

// Var returns the sample variance (0 when fewer than 2 observations).
func (s *Stats) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Stats) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Stats) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Stats) Max() float64 { return s.max }

// String summarizes the stats.
func (s *Stats) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f", s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// Histogram stores raw observations and answers percentile queries
// exactly. It is meant for simulation-scale data (≤ millions of points).
type Histogram struct {
	xs     Chunks[float64]
	sorted bool
}

// Add records an observation.
//
//optcc:hotpath
func (h *Histogram) Add(x float64) {
	h.xs.Append(x)
	h.sorted = false
}

// Grow ensures capacity for at least n further observations without
// allocating. The simulator presizes its per-request histograms with the
// run's expected sample count so steady-state Add calls never touch the
// allocator (the zero-allocation hot-path invariant, DESIGN.md "Memory
// discipline"); a run that overflows the reservation — restarts add extra
// requests — spills into further chunks without copying the samples.
func (h *Histogram) Grow(n int) { h.xs.Grow(n) }

// N returns the number of observations.
func (h *Histogram) N() int { return h.xs.Len() }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank; it returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) float64 {
	xs := h.xs.Flat()
	if len(xs) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(xs)
		h.sorted = true
	}
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// Mean returns the mean of all observations.
func (h *Histogram) Mean() float64 {
	xs := h.xs.Flat()
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Summary renders n, mean and the standard latency percentiles.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		h.N(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Percentile(100))
}

// Ratio formats a/b as both a fraction and a percentage, guarding b = 0.
func Ratio(a, b int) string {
	if b == 0 {
		return "0/0"
	}
	return fmt.Sprintf("%d/%d (%.1f%%)", a, b, 100*float64(a)/float64(b))
}

// AllocMeter measures the allocator pressure of a region of code: heap
// objects and bytes allocated between Start and Delta, from the
// runtime/metrics allocation counters (no stop-the-world, unlike
// runtime.ReadMemStats — the simulator meters every run, including
// sub-millisecond ones, so the read must be nearly free). The counters are
// process-global, so concurrent activity outside the measured region
// pollutes the reading — treat it as a trend meter (the simulator's
// AllocBytes/AllocsPerTx metrics, ccbench -allocstats), not a proof; the
// proof lives in the AllocsPerOp ceilings of TestHotPathAllocCeilings.
type AllocMeter struct {
	objects, bytes uint64
}

func readAllocCounters() (objects, bytes uint64) {
	samples := [2]metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples[:])
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// Start snapshots the allocator counters.
func (a *AllocMeter) Start() {
	a.objects, a.bytes = readAllocCounters()
}

// Delta returns heap objects and bytes allocated since Start.
func (a *AllocMeter) Delta() (allocs, bytes int64) {
	objects, byteCount := readAllocCounters()
	return int64(objects - a.objects), int64(byteCount - a.bytes)
}
