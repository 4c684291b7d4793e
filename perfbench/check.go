package main

import (
	"fmt"

	"optcc/internal/core"
	"optcc/internal/sim"
	"optcc/internal/storage"
)

// checkRound verifies one round's output: every job committed, and the
// backend state equals core.Exec of the committed schedule with the
// snapshot-served readers (absent from Output: they take no grants)
// appended. On a durable backend it then closes the store, recovers the
// directory with storage.OpenDisk and requires that same state from a
// clean log. It returns the durable counters read after Close and the
// recovery's counters (both nil for memory backends).
func checkRound(sys *core.System, m *sim.Metrics, be storage.Backend) (closed, recovered *storage.DurabilityStats, err error) {
	disk, _ := be.(*storage.Disk)
	n := sys.NumTxs()
	if m.Committed != n {
		return nil, nil, fmt.Errorf("committed %d of %d jobs", m.Committed, n)
	}
	full := append(core.Schedule{}, m.Output...)
	seen := make([]bool, n)
	for _, id := range m.Output {
		seen[id.Tx] = true
	}
	for tx, ok := range seen {
		if ok {
			continue
		}
		for idx, st := range sys.Txs[tx].Steps {
			if st.Kind != core.Read {
				return nil, nil, fmt.Errorf("committed writer %d has no granted steps", tx)
			}
			full = append(full, core.StepID{Tx: tx, Idx: idx})
		}
	}
	replay, err := core.Exec(sys, full, sys.InitialStates()[0])
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	if !be.State().Equal(replay) {
		return nil, nil, fmt.Errorf("backend state differs from the replay of the committed schedule")
	}
	if disk == nil {
		return nil, nil, nil
	}
	if err := disk.Close(); err != nil {
		return nil, nil, fmt.Errorf("close: %w", err)
	}
	ds := disk.DurabilityStats()
	if ds.CheckpointerOff {
		return nil, nil, fmt.Errorf("checkpointer disabled itself")
	}
	r, err := storage.OpenDisk(storage.Config{Dir: disk.Dir()})
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: %w", err)
	}
	defer r.Close()
	rs := r.DurabilityStats()
	if !r.State().Equal(replay) {
		return nil, nil, fmt.Errorf("recovered state differs from the replay of the committed schedule")
	}
	if rs.WALTruncated != 0 {
		return nil, nil, fmt.Errorf("recovery after a clean close truncated the log")
	}
	return &ds, &rs, nil
}
