package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON: a run prints exactly the metrics
// BENCHMARK.json declares, with the declared units — end-to-end ones
// untraced, per-layer ones traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	var rounds []*roundResult
	for _, md := range []mode{probeOn, traced, probeOff} {
		rr, err := runRound(w, 5, 1, w.jobs/50, md, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, rr)
	}
	e2e, layers := map[string]metric{}, map[string]metric{}
	endToEnd(rounds[:1], e2e)
	perLayer(rounds, layers)
	for _, c := range []struct {
		what string
		decl []decl
		got  map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		if len(c.decl) != len(c.got) {
			t.Errorf("%s: %d declared, %d printed", c.what, len(c.decl), len(c.got))
		}
		for _, d := range c.decl {
			m, ok := c.got[d.Name]
			if !ok {
				t.Errorf("%s: %s declared but not printed", c.what, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s printed in %s, declared in %s", c.what, d.Name, m.Unit, d.Unit)
			}
		}
	}
}
