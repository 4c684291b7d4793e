package experiments

import (
	"strings"
	"testing"
)

// Each experiment must run green and produce non-empty output; the
// in-experiment invariant checks (nesting, adversary coverage, strict
// separations) are the real assertions.
func TestEveryExperimentRuns(t *testing.T) {
	m, order := All()
	if len(m) != len(order) {
		t.Fatalf("All() returned %d runners for %d ordered ids", len(m), len(order))
	}
	for _, id := range order {
		if id == "E4" || id == "E8" || id == "E9" || id == "E11" || id == "E12" || id == "E13" || id == "E15" {
			continue // covered by the TestE*Quick variants to keep the suite fast
		}
		r, err := m[id]()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if r.ID != id {
			t.Errorf("%s returned result id %s", id, r.ID)
		}
		out := r.String()
		if len(out) < 40 {
			t.Errorf("%s output suspiciously small:\n%s", id, out)
		}
		md := r.Markdown()
		if !strings.HasPrefix(md, "## "+id) {
			t.Errorf("%s markdown header wrong", id)
		}
	}
}

func TestE4Quick(t *testing.T) {
	r, err := E4Quick()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Errorf("E4 quick tables = %d", len(r.Tables))
	}
}

func TestE8Quick(t *testing.T) {
	r, err := E8Quick()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Errorf("E8 quick tables = %d", len(r.Tables))
	}
	// Each table compares the Mutexed baseline with every sharded config.
	for _, tbl := range r.Tables {
		if got := strings.Count(tbl.String(), "2pl"); got < 3 {
			t.Errorf("E8 table missing rows:\n%s", tbl.String())
		}
	}
}

func TestE9Quick(t *testing.T) {
	r, err := E9Quick()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Errorf("E9 quick tables = %d", len(r.Tables))
	}
	// Each table carries the Mutexed baseline plus the sharded configs; the
	// runner itself asserts the committed-state-equals-replay invariant.
	for _, tbl := range r.Tables {
		if got := strings.Count(tbl.String(), "2pl"); got < 2 {
			t.Errorf("E9 table missing rows:\n%s", tbl.String())
		}
	}
}

func TestE10Quick(t *testing.T) {
	r, err := E10Quick()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Errorf("E10 quick tables = %d", len(r.Tables))
	}
	// One row per batch size; the runner itself asserts all jobs committed
	// and the committed-state-equals-replay invariant per batch size.
	if got := len(r.Tables[0].String()); got == 0 {
		t.Error("E10 table empty")
	}
}

func TestE11Quick(t *testing.T) {
	r, err := E11Quick()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Errorf("E11 quick tables = %d", len(r.Tables))
	}
	// One native-TO, one Sharded(TO) and one 2PL row per shard count; the
	// runner itself asserts the per-regime self-checks (state==replay on
	// the disjoint regime, committed-schedule CSR on the skewed one).
	for _, tbl := range r.Tables {
		s := tbl.String()
		for _, want := range []string{"cto(", "sharded(", "2pl-sharded("} {
			if !strings.Contains(s, want) {
				t.Errorf("E11 table missing %q rows:\n%s", want, s)
			}
		}
	}
}

func TestE15Quick(t *testing.T) {
	r, err := E15Quick()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Errorf("E15 quick tables = %d", len(r.Tables))
	}
	// One native-SGT, sharded(SGT), native-OCC, sharded(OCC), native-TO
	// and 2PL row per shard count; the runner itself asserts the per-regime
	// self-checks (state==replay on the disjoint regime, committed-schedule
	// CSR on the skewed one).
	for _, tbl := range r.Tables {
		s := tbl.String()
		for _, want := range []string{"csgt(", "cocc(", "sharded(", "cto(", "2pl-sharded("} {
			if !strings.Contains(s, want) {
				t.Errorf("E15 table missing %q rows:\n%s", want, s)
			}
		}
	}
}

func TestE12Quick(t *testing.T) {
	r, err := E12Quick()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Errorf("E12 quick tables = %d", len(r.Tables))
	}
	// One mv, one 2PL and one cto row per read fraction; the runner itself
	// asserts the per-scheduler self-checks (state==replay for mv and 2pl,
	// committed-schedule CSR for cto). mv must actually have used the
	// snapshot path.
	for _, tbl := range r.Tables {
		s := tbl.String()
		for _, want := range []string{"mv(", "2pl-sharded(", "cto("} {
			if !strings.Contains(s, want) {
				t.Errorf("E12 table missing %q rows:\n%s", want, s)
			}
		}
	}
}

func TestE13Quick(t *testing.T) {
	r, err := E13Quick()
	if err != nil {
		t.Fatal(err)
	}
	// One table per scheduler (sharded 2PL, cto); the
	// runner itself asserts the per-cell durability self-check: live state
	// == committed replay == state recovered by OpenDisk after Close.
	if len(r.Tables) != 2 {
		t.Errorf("E13 quick tables = %d", len(r.Tables))
	}
	for _, tbl := range r.Tables {
		s := tbl.String()
		for _, want := range []string{"always", "group", "recovered==replay"} {
			if !strings.Contains(s, want) {
				t.Errorf("E13 table missing %q rows:\n%s", want, s)
			}
		}
	}
	if !strings.Contains(r.Text, "fsync=group throughput") {
		t.Errorf("E13 text missing amortization summary:\n%s", r.Text)
	}
}

func TestE14Quick(t *testing.T) {
	r, err := E14Quick()
	if err != nil {
		t.Fatal(err)
	}
	// One table sweeping checkpoint interval × job volume; the runner
	// asserts per cell that live state == replay == recovery, that the
	// checkpointer stayed healthy, and that every checkpointed interval
	// shrinks the on-disk footprint below the interval-0 control.
	if len(r.Tables) != 1 {
		t.Fatalf("E14 quick tables = %d", len(r.Tables))
	}
	s := r.Tables[0].String()
	for _, want := range []string{"interval-B", "recovered==replay"} {
		if !strings.Contains(s, want) {
			t.Errorf("E14 table missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(r.Text, "smaller") {
		t.Errorf("E14 text missing footprint headline:\n%s", r.Text)
	}
}

func TestNewBackendUnknown(t *testing.T) {
	if _, err := NewBackend("bogus", 1, 0); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 24 {
		t.Errorf("IDs = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Error("IDs not sorted")
		}
	}
}

func TestResultStringFormat(t *testing.T) {
	r, err := F1WeaklySerializableHistory()
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"F1", "Herbrand value", "f12"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}
