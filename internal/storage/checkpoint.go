package storage

// The online fuzzy checkpointer: what lets a disk backend run forever.
//
// Without it the log only shrinks at OpenDisk — a serving process
// accumulates sealed segments without bound and its recovery time grows
// with log-since-birth. The checkpointer bounds both:
//
//  1. Capture (fuzzy, under d.mu, O(table) encode — commits proceed the
//     moment the mutex drops): encode the table as a snapshot record and
//     note the anchor — (segment aseq, byte offset aoff) of the active
//     segment. Because every table mutation and its log append happen
//     together under d.mu, the capture equals the replay of the log prefix
//     [.., aseq:aoff) exactly. Transactions in flight need nothing: their writes are still
//     in their write sets, outside both the table and the log, and reach
//     the log after the anchor inside their commit records.
//  2. Write the checkpoint file ckpt-N.ckpt off-mutex with the established
//     tmp → sync → rename protocol: a header marker record (anchor), then
//     one snapshot record (the table). Same framing and checksums as the
//     WAL, so torn checkpoints are detected exactly like torn segments —
//     and ignored by recovery.
//  3. Append the checkpoint marker to the WAL and sync it durable. The
//     marker is what recovery and the torture harness cross-check; nothing
//     is unlinked before it is on disk.
//  4. Retire: close and unlink every sealed segment with seq < aseq (all
//     of them are wholly behind the anchor), and GC superseded checkpoint
//     files. Recovery (recovery.go) then starts from the newest complete
//     checkpoint and replays only the tail — log-since-checkpoint, not
//     log-since-birth.
//
// Graceful degradation is the contract, not an afterthought: a transient
// fault in steps 2–4 fails only the checkpoint attempt — the commit path
// never sees it — and the background loop retries with exponential
// backoff; after ckptMaxFailures consecutive failures the checkpointer
// disables itself and surfaces CheckpointerOff, leaving commits correct
// and fast (the log merely stops being retired) — a later Reset clears the
// flag and respawns the loop (disk.go), so the flag never claims a
// checkpointer that does not exist. A fault in step 3 is a
// real log-append failure and poisons the store like any other append —
// at which point the checkpointer (like GroupSync) observes the sticky
// error and stops cleanly, performing no further unlinks.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
)

// errCkptSuperseded is returned by checkpointOnce when a Reset bumped the
// generation after the capture: the attempt is abandoned — its file names a
// discarded incarnation and must never gate the new log's segments — and it
// counts neither as a completed checkpoint nor as a failure.
var errCkptSuperseded = errors.New("storage: checkpoint superseded by Reset")

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
	ckptTmpExt = ".tmp"
)

// ckptName formats checkpoint file names so lexicographic order is
// creation order, mirroring segName.
func ckptName(seq int) string { return fmt.Sprintf("ckpt-%08d.ckpt", seq) }

// ckptMaxFailures is how many consecutive failed attempts the background
// loop tolerates before disabling checkpointing (CheckpointerOff).
const ckptMaxFailures = 5

// ckptBackoffInitial seeds the exponential retry backoff.
const ckptBackoffInitial = time.Millisecond

// checkpointLoop is the background goroutine armed by
// Config.CheckpointBytes: appendLocked kicks it when the bytes appended
// since the last capture cross the threshold. Exits on Close, on a
// poisoned store, or after persistent failures disable checkpointing.
// Every exit clears ckptRunning in the same critical section as the state
// that justifies it, so Reset's respawn decision (disk.go) never races a
// dying loop into a flag-says-healthy-but-no-loop state.
func (d *Disk) checkpointLoop() {
	defer d.ckptWG.Done()
	failures := 0
	backoff := ckptBackoffInitial
	for {
		select {
		case <-d.ckptStop:
			d.checkpointLoopExit()
			return
		case <-d.ckptKick:
		}
		for {
			err := d.Checkpoint()
			if err == nil {
				failures, backoff = 0, ckptBackoffInitial
				break
			}
			d.mu.Lock()
			if d.err != nil {
				// Sticky store error: stop cleanly, no more unlinks. A later
				// Reset that revives the store respawns the loop.
				d.ckptRunning = false
				d.mu.Unlock()
				return
			}
			if failures++; failures >= ckptMaxFailures {
				d.ckptOff = true // health flag; commits continue unaffected
				d.ckptRunning = false
				d.mu.Unlock()
				return
			}
			d.mu.Unlock()
			select {
			case <-d.ckptStop:
				d.checkpointLoopExit()
				return
			case <-time.After(backoff):
			}
			backoff *= 2
		}
	}
}

// checkpointLoopExit marks the background loop dead under mu.
func (d *Disk) checkpointLoopExit() {
	d.mu.Lock()
	d.ckptRunning = false
	d.mu.Unlock()
}

// stopCheckpointer signals the background loop and waits for it — and any
// in-flight checkpoint — to finish. Idempotent; called by Close before it
// touches the segments, with no locks held (the loop needs d.mu to exit a
// running attempt). ckptStopped is set under mu BEFORE the channel closes,
// so a concurrent Reset either respawns before the close (the new loop sees
// the closed channel and exits, covered by the Wait) or observes the flag
// and leaves the checkpointer down for good.
func (d *Disk) stopCheckpointer() {
	d.mu.Lock()
	d.ckptStopped = true
	d.mu.Unlock()
	d.ckptOnce.Do(func() { close(d.ckptStop) })
	d.ckptWG.Wait()
}

// Checkpoint performs one synchronous fuzzy checkpoint attempt: capture,
// checkpoint file (tmp → sync → rename), durable WAL marker, segment
// retirement. Safe to call while commits are running; must not race
// Close. Counts CheckpointFailures on error. The background loop calls
// this with retry + backoff; tests and operators may call it directly.
func (d *Disk) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	switch err := d.checkpointOnce(); {
	case err == nil:
		d.checkpoints.Add(1)
		return nil
	case errors.Is(err, errCkptSuperseded):
		// Abandoned by a concurrent Reset: nothing was published for the
		// current log, so it is neither a completed checkpoint nor a failure.
		return nil
	default:
		d.ckptFailures.Add(1)
		return err
	}
}

func (d *Disk) checkpointOnce() error {
	// Step 1: fuzzy capture under d.mu. The anchor (aseq, aoff) names the
	// exact log position the captured state equals; everything the store
	// appends after the unlock lands at or beyond it and will be replayed
	// by recovery on top of the checkpoint. The table is captured as its
	// encoded snapshot frame, in this checkpoint's own encoder (d.enc
	// belongs to the append path) — no map copy of the table is made.
	var snap walEncoder
	d.mu.Lock()
	if d.err != nil {
		err := d.err
		d.mu.Unlock()
		return err
	}
	if d.active == nil {
		d.mu.Unlock()
		return fmt.Errorf("storage: checkpoint before Reset/OpenDisk")
	}
	gen := d.ckptGen
	aseq := d.seq
	aoff := d.activeBytes
	d.ckptSeq++
	cseq := d.ckptSeq
	snapFrame := snap.encodeSnapshot(d.table)
	d.sinceCkpt = 0
	d.mu.Unlock()

	// Step 2: write the checkpoint file off-mutex, tmp → sync → rename.
	// Separate frames per record keep the fault injector's granularity:
	// every write is its own crash point.
	var hdr walEncoder
	tmp := segPath(d.dir, ckptName(cseq)+ckptTmpExt)
	f, err := d.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: checkpoint create: %w", err)
	}
	written := int64(0)
	write := func(frame []byte) error {
		n, werr := f.Write(frame)
		written += int64(n)
		return werr
	}
	werr := write(hdr.encodeCkpt(cseq, aseq, aoff))
	if werr == nil {
		werr = write(snapFrame)
	}
	if werr == nil {
		werr = f.Sync()
	}
	f.Close()
	d.ckptBytes.Add(written)
	if werr != nil {
		return fmt.Errorf("storage: checkpoint write: %w", werr)
	}
	d.fsyncs.Add(1)
	if err := d.fs.Rename(tmp, segPath(d.dir, ckptName(cseq))); err != nil {
		return fmt.Errorf("storage: checkpoint rename: %w", err)
	}

	// Step 3: durable marker in the WAL. A failure here is a real append
	// failure — appendLocked/syncLocked poison the store and the sticky
	// error stops everything, this checkpoint included. A Reset since the
	// capture (generation bump) abandons the checkpoint: its file refers
	// to a discarded incarnation and must never gate that log's segments.
	// Reset does not wait for checkpoints, so the rename above may have
	// landed after Reset cleared the directory; recovery would then take
	// the old incarnation's state for the new one's, so the abandoned
	// checkpoint removes its own file. No later checkpoint can have
	// reused the name: they all wait for ckptMu, which this one holds.
	d.mu.Lock()
	if d.err != nil {
		err := d.err
		d.mu.Unlock()
		return err
	}
	if d.ckptGen != gen {
		d.mu.Unlock()
		if err := d.fs.Remove(segPath(d.dir, ckptName(cseq))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("storage: remove superseded checkpoint: %w", err)
		}
		return errCkptSuperseded
	}
	if err := d.appendLocked(d.enc.encodeCkpt(cseq, aseq, aoff)); err != nil {
		d.mu.Unlock()
		return err
	}
	if err := d.syncLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()

	// Step 4: retire. Only now — marker durably synced — may segments
	// wholly behind the anchor disappear.
	return d.retire(gen, aseq, cseq)
}

// retire is checkpoint step 4: close and unlink every sealed segment wholly
// behind the anchor, and GC superseded checkpoint files. The whole step —
// generation/error re-check, handle close, directory listing and unlinks —
// is ONE critical section under syncMu+mu, and that atomicity is
// load-bearing twice over: a concurrent Reset (which requires mu) can never
// bump the generation and lay down a fresh seg-00000001.wal between our
// re-check and an unlink that would destroy it, and a concurrent poisoning
// (poisonLocked, also under mu, which releases the data-dir flock) can never
// let a fresh OpenDisk claim the directory while we are still unlinking
// under the old incarnation's feet. syncMu additionally excludes an
// in-flight GroupSync that may be fsyncing a captured handle that has since
// rolled into sealed. Holding mu across unlinks stalls the commit path for
// the duration of a few Removes, once per checkpoint — the one deliberate
// exception to the "no I/O under mu" rule, bought for Reset/poison atomicity.
func (d *Disk) retire(gen int64, aseq, cseq int) error {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err // poisoned stores perform no unlinks
	}
	if d.ckptGen != gen {
		return errCkptSuperseded
	}
	keep := d.sealed[:0]
	for _, s := range d.sealed {
		if s.seq < aseq {
			s.f.Close()
		} else {
			keep = append(keep, s)
		}
	}
	d.sealed = keep
	names, err := d.fs.List(d.dir)
	if err != nil {
		return fmt.Errorf("storage: checkpoint retire list: %w", err)
	}
	for _, n := range names {
		var seq int
		switch {
		case strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".wal"):
			if _, err := fmt.Sscanf(n, "seg-%d.wal", &seq); err != nil || seq >= aseq {
				continue // the anchor segment and everything after must stay
			}
			if err := d.fs.Remove(segPath(d.dir, n)); err != nil {
				return fmt.Errorf("storage: checkpoint retire %s: %w", n, err)
			}
			d.segsRetired.Add(1)
		case strings.HasPrefix(n, ckptPrefix):
			// GC superseded checkpoints (and stale .tmp leftovers of failed
			// attempts); best-effort — recovery picks the newest valid one
			// regardless, and the compaction at OpenDisk sweeps stragglers.
			trimmed := strings.TrimSuffix(n, ckptTmpExt)
			if _, err := fmt.Sscanf(trimmed, "ckpt-%d.ckpt", &seq); err == nil &&
				(seq < cseq || (n != trimmed && seq <= cseq)) {
				d.fs.Remove(segPath(d.dir, n))
			}
		}
	}
	return nil
}
