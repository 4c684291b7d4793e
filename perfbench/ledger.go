package main

import (
	"slices"

	"optcc/internal/online"
	"optcc/internal/sim"
	"optcc/internal/storage"
)

// txLedger splits one committed transaction's commit latency — first step
// request to commit acknowledgement — across the layers whose spans fall
// inside it. self is the part no span covers: the runtime's own dispatch,
// channel hops, lane queueing and restart backoff (sim).
type txLedger struct {
	latency int64
	attr    [numSpanKinds]int64 // span time inside the window, per kind
	storage int64               // snapshot readers: time inside storage calls
	union   int64               // time covered by at least one span
	spill   int64               // span time outside the window
}

func (l *txLedger) self() int64 { return l.latency - l.union }

func (l *txLedger) attributed() int64 {
	s := l.storage
	for _, a := range l.attr {
		s += a
	}
	return s
}

// closureErr is how far attributed spans plus self miss the measured
// latency, as a share of it: spans that overlap each other or cross the
// window's edges make it positive.
func (l *txLedger) closureErr() float64 {
	if l.latency <= 0 {
		return 0
	}
	d := l.attributed() + l.self() - l.latency
	if d < 0 {
		d = -d
	}
	return float64(d+l.spill) / float64(l.latency)
}

// buildLedger attributes each committed transaction's spans. Spans that
// start after the acknowledgement — the scheduler's lock release, which
// the commit path runs after the ack — are not part of the latency.
// spans is sorted in place.
func buildLedger(rec *recorder, spans []span) []txLedger {
	slices.SortFunc(spans, func(a, b span) int {
		if a.tx != b.tx {
			return int(a.tx - b.tx)
		}
		return int(a.start - b.start)
	})
	var out []txLedger
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].tx == spans[i].tx {
			j++
		}
		tx := int(spans[i].tx)
		first, ack := rec.first[tx], rec.ack[tx]
		if first > 0 && ack > 0 {
			l := txLedger{latency: ack - first}
			var curEnd int64 = first
			for _, s := range spans[i:j] {
				if s.start >= ack {
					continue
				}
				lo, hi := max(s.start, first), min(s.end, ack)
				if hi > lo {
					l.attr[s.kind] += hi - lo
					if hi > curEnd {
						l.union += hi - max(lo, curEnd)
						curEnd = hi
					}
				}
				l.spill += (s.end - s.start) - max(hi-lo, 0)
			}
			out = append(out, l)
		}
		i = j
	}
	for si := range rec.slots {
		for _, rd := range rec.slots[si].readers {
			out = append(out, txLedger{latency: rd.end - rd.start, storage: rd.storageNs, union: rd.storageNs})
		}
	}
	return out
}

// layerInputs is what a traced round hands to layerMetrics besides its
// recorder.
type layerInputs struct {
	m         *sim.Metrics
	stats     storage.Stats
	snapshot  storage.SnapshotBackend  // nil unless the backend keeps snapshots
	durable   *storage.DurabilityStats // nil for memory backends; read after Close
	recovered *storage.DurabilityStats // the reopen's stats (recovery time and bytes)
	fs        *fsProbe                 // nil for memory backends
}

// layerMetrics computes the per-layer metrics of one traced round from its
// spans and ledger.
func layerMetrics(rec *recorder, spans []span, ledger []txLedger, in layerInputs) map[string]metric {
	m := in.m
	committed := float64(max(m.Committed, 1))
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	var tryCost, applyNs, beCommitNs, durableNs []float64
	var grants, delays, aborts, requests float64
	var onlineBusy, storageBusy, rollbacks float64
	for _, s := range spans {
		d := float64(s.end - s.start)
		switch s.kind {
		case spanTry:
			per := d / float64(s.n)
			tryCost = append(tryCost, per)
			onlineBusy += per
			requests++
			switch s.dec {
			case online.Grant:
				grants++
			case online.Delay:
				delays++
			default:
				aborts++
			}
		case spanAbort, spanCommit:
			onlineBusy += d
		case spanApply:
			applyNs = append(applyNs, d)
			storageBusy += d
		case spanBeCommit:
			beCommitNs = append(beCommitNs, d)
			storageBusy += d
		case spanRollback:
			rollbacks++
			storageBusy += d
		case spanDurable:
			durableNs = append(durableNs, d)
		}
	}
	var snapTx, snapRead []float64
	for i := range rec.slots {
		for _, rd := range rec.slots[i].readers {
			snapTx = append(snapTx, float64(rd.end-rd.start))
			storageBusy += float64(rd.storageNs)
		}
		for _, d := range rec.slots[i].readNs {
			snapRead = append(snapRead, float64(d))
		}
	}

	set("online.try_p50_ns", "ns", percentile(tryCost, 50))
	set("online.try_p99_ns", "ns", percentile(tryCost, 99))
	set("online.try_calls_per_tx", "count", requests/committed)
	set("online.busy_us_per_tx", "us", onlineBusy/1e3/committed)
	set("online.grant_ratio", "ratio", ratio(grants, requests))
	set("online.delay_ratio", "ratio", ratio(delays, requests))
	set("online.abort_ratio", "ratio", ratio(aborts, requests))
	set("online.aborts_per_commit", "count", float64(m.Aborts)/committed)
	set("online.useful_grant_ratio", "ratio", ratio(float64(len(m.Output)), grants))

	set("sim.sched_p50_us", "us", m.SchedNs.Percentile(50)/1e3)
	set("sim.sched_p99_us", "us", m.SchedNs.Percentile(99)/1e3)
	set("sim.wait_p99_us", "us", m.WaitNs.Percentile(99)/1e3)
	set("sim.deadlock_breaks", "count", float64(m.DeadlockBreaks))
	set("sim.group_size", "count", m.GroupSize())
	set("sim.enqueue_p50_us", "us", m.TxLatencyNs.Percentile(50)/1e3)
	set("sim.enqueue_p99_us", "us", m.TxLatencyNs.Percentile(99)/1e3)

	var lat, self, closure float64
	var byKind [numSpanKinds]float64
	var snapStorage float64
	for i := range ledger {
		l := &ledger[i]
		lat += float64(l.latency)
		self += float64(l.self())
		snapStorage += float64(l.storage)
		for k, a := range l.attr {
			byKind[k] += float64(a)
		}
		closure = max(closure, l.closureErr())
	}
	set("sim.self_us_per_tx", "us", self/1e3/committed)
	set("sim.self_share", "ratio", ratio(self, lat))
	set("sim.parked_share", "ratio", ratio(byKind[spanParked], lat))
	set("online.latency_share", "ratio", ratio(byKind[spanTry]+byKind[spanAbort]+byKind[spanCommit], lat))
	set("storage.latency_share", "ratio", ratio(byKind[spanApply]+byKind[spanBeCommit]+byKind[spanRollback]+snapStorage, lat))
	set("storage.durable_lag_share", "ratio", ratio(byKind[spanDurable], lat))
	set("trace.closure_max_err", "ratio", closure)

	set("storage.apply_p50_ns", "ns", percentile(applyNs, 50))
	set("storage.apply_p99_ns", "ns", percentile(applyNs, 99))
	set("storage.commit_p50_ns", "ns", percentile(beCommitNs, 50))
	set("storage.busy_us_per_tx", "us", storageBusy/1e3/committed)
	set("storage.rollbacks_per_commit", "count", rollbacks/committed)
	set("storage.bytes_written_per_commit", "B", float64(in.stats.BytesWritten)/committed)

	set("storage.snapshot_tx_p50_us", "us", percentile(snapTx, 50)/1e3)
	set("storage.snapshot_read_p50_ns", "ns", percentile(snapRead, 50))
	gced := 0.0
	if in.snapshot != nil {
		gced = float64(in.snapshot.VersionsGCed())
	}
	set("storage.versions_gced_per_commit", "count", gced/committed)

	syncNs := make([]float64, len(rec.syncNs))
	for i, d := range rec.syncNs {
		syncNs[i] = float64(d)
	}
	set("storage.group_sync_p50_us", "us", percentile(syncNs, 50)/1e3)
	set("storage.group_sync_p99_us", "us", percentile(syncNs, 99)/1e3)
	set("storage.durable_lag_p50_us", "us", percentile(durableNs, 50)/1e3)
	set("storage.durable_lag_p99_us", "us", percentile(durableNs, 99)/1e3)
	var ds, rs storage.DurabilityStats
	if in.durable != nil {
		ds = *in.durable
	}
	if in.recovered != nil {
		rs = *in.recovered
	}
	set("storage.fsyncs_per_commit", "count", float64(ds.Fsyncs)/committed)
	set("storage.wal_bytes_per_commit", "B", float64(ds.WALBytes)/committed)
	set("storage.checkpoints", "count", float64(ds.Checkpoints))
	set("storage.segments_retired", "count", float64(ds.SegmentsRetired))
	set("storage.recovery_s", "s", float64(rs.RecoveryNs)/1e9)
	set("storage.recovery_bytes", "B", float64(rs.RecoveryBytes))

	var fsSync []float64
	var fsWrites, fsBytes float64
	if in.fs != nil {
		for _, d := range in.fs.syncNs {
			fsSync = append(fsSync, float64(d))
		}
		fsWrites, fsBytes = float64(in.fs.writes.Load()), float64(in.fs.bytes.Load())
	}
	set("fs.sync_p50_us", "us", percentile(fsSync, 50)/1e3)
	set("fs.sync_p99_us", "us", percentile(fsSync, 99)/1e3)
	set("fs.syncs_per_commit", "count", float64(len(fsSync))/committed)
	set("fs.writes_per_commit", "count", fsWrites/committed)
	set("fs.write_bytes_per_commit", "B", fsBytes/committed)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
