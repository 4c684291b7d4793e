package main

import "testing"

// TestLedgerCloses: on a short traced round of every workload, each
// committed transaction's attributed spans plus sim's self time add up to
// its measured commit latency within 5%, and the spans cover a real part
// of it (the ledger is not empty by construction).
func TestLedgerCloses(t *testing.T) {
	for _, w := range workloads {
		rr, err := runRound(w, 3, 1, w.jobs/20, traced, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(rr.ledger) != rr.committed {
			t.Fatalf("%s: %d ledger entries for %d commits", w.name, len(rr.ledger), rr.committed)
		}
		var lat, attributed int64
		bad := 0
		for i := range rr.ledger {
			l := &rr.ledger[i]
			lat += l.latency
			attributed += l.attributed()
			if e := l.closureErr(); e > 0.05 {
				if bad < 5 {
					t.Errorf("%s: transaction ledger misses its latency by %.1f%%: %+v", w.name, 100*e, *l)
				}
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d ledgers do not close", w.name, bad, len(rr.ledger))
		}
		if attributed == 0 || attributed > lat {
			t.Errorf("%s: spans cover %d of %d ns of latency", w.name, attributed, lat)
		}
		t.Logf("%s: spans cover %.1f%% of commit latency, sim self time the rest", w.name, 100*float64(attributed)/float64(lat))
	}
}
