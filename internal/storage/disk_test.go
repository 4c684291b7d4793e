package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"optcc/internal/core"
)

// TestWALRoundTrip encodes every record kind and decodes it back through
// the frame scanner.
func TestWALRoundTrip(t *testing.T) {
	var enc walEncoder
	var log []byte
	log = append(log, enc.encodeCommit(3, nil)...)
	log = append(log, enc.encodeCommit(5, []walWrite{{v: "a", val: -2}, {v: "b", val: 1 << 40}})...)
	log = append(log, enc.encodeSnapshot(core.DB{"x": 9, "y": -1})...)
	log = append(log, enc.encodeCkpt(4, 7, 1234)...)

	var recs []walRec
	valid, clean := walScan(log, func(r walRec) { recs = append(recs, r) })
	if !clean || valid != len(log) {
		t.Fatalf("scan: valid=%d clean=%v, want %d true", valid, clean, len(log))
	}
	if len(recs) != 4 {
		t.Fatalf("decoded %d records, want 4", len(recs))
	}
	if r := recs[0]; r.kind != walCommit || r.tx != 3 || len(r.writes) != 0 {
		t.Errorf("empty commit record mismatch: %+v", r)
	}
	if r := recs[1]; r.kind != walCommit || r.tx != 5 || len(r.writes) != 2 || r.writes[1].val != 1<<40 {
		t.Errorf("buffered commit record mismatch: %+v", r)
	}
	if r := recs[2]; r.kind != walSnapshot || len(r.writes) != 2 {
		t.Errorf("snapshot record mismatch: %+v", r)
	}
	if r := recs[3]; r.kind != walCkpt || r.ckpt != 4 || r.aseq != 7 || r.aoff != 1234 {
		t.Errorf("checkpoint marker mismatch: %+v", r)
	}
}

// TestWALScanStopsAtTear checks the scanner's three failure modes — short
// frame, bad checksum, garbage payload — all end the valid prefix exactly
// at the last good record.
func TestWALScanStopsAtTear(t *testing.T) {
	var enc walEncoder
	good := append([]byte(nil), enc.encodeCommit(1, []walWrite{{v: "x", val: 1}})...)
	good = append(good, enc.encodeCommit(2, []walWrite{{v: "y", val: 2}})...)

	tail := append([]byte(nil), enc.encodeCommit(3, []walWrite{{v: "z", val: 3}})...)
	cases := map[string][]byte{
		"truncated header": append(append([]byte(nil), good...), tail[:4]...),
		"truncated body":   append(append([]byte(nil), good...), tail[:len(tail)-3]...),
		"flipped byte": func() []byte {
			b := append(append([]byte(nil), good...), tail...)
			b[len(good)+walHeaderSize+2] ^= 0xff
			return b
		}(),
		"zero garbage": append(append([]byte(nil), good...), make([]byte, 40)...),
	}
	for name, log := range cases {
		var n int
		valid, clean := walScan(log, func(walRec) { n++ })
		if clean || valid != len(good) || n != 2 {
			t.Errorf("%s: valid=%d clean=%v records=%d, want valid=%d clean=false records=2",
				name, valid, clean, n, len(good))
		}
	}
}

// handFrame frames payload the way the WAL does — u32 length, u32
// CRC-32C, payload — without going through walEncoder, so the test pins
// the on-disk bytes rather than the encoder's current idea of them.
func handFrame(payload ...byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// TestOpenDiskRetiredEagerFormat pins the record kind numbers across the
// removal of the eager (redo+undo) mode. A log in the write-buffered
// format (snapshot = 4, commit = 2 with its write set) still recovers. A
// log or checkpoint holding a checksummed eager update (1) or abort (3)
// record must fail OpenDisk with errRetiredFormat and leave every file as
// it was — treating the record as a torn tail would let compaction unlink
// the committed log behind it.
func TestOpenDiskRetiredEagerFormat(t *testing.T) {
	// Payloads: kind byte, then uvarint/varint fields; variable names are
	// uvarint length + bytes.
	snapshotX1 := handFrame(4, 1, 1, 'x', 2)      // snapshot {x: 1}
	commitX5 := handFrame(2, 7, 1, 1, 'x', 10)    // tx 7 commits {x: 5}
	updateX5 := handFrame(1, 7, 1, 'x', 2, 10, 1) // tx 7: x 1 -> 5, existed
	eagerCommit := handFrame(2, 7, 0)             // tx 7 commits, no write set
	abort7 := handFrame(3, 7)                     // tx 7 aborts
	ckptHeader := handFrame(5, 1, 1, 0)           // ckpt 1 anchored at seg 1, offset 0
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

	cases := []struct {
		name  string
		files map[string][]byte
		want  core.DB // nil: OpenDisk must refuse the directory
	}{
		{"buffered log recovers", map[string][]byte{
			segName(1): cat(snapshotX1, commitX5),
		}, core.DB{"x": 5}},
		{"eager update+commit in a segment", map[string][]byte{
			segName(1): cat(snapshotX1, updateX5, eagerCommit),
		}, nil},
		{"eager update+abort in a segment", map[string][]byte{
			segName(1): cat(snapshotX1, updateX5, abort7),
		}, nil},
		{"eager live chain in a checkpoint", map[string][]byte{
			ckptName(1): cat(ckptHeader, snapshotX1, updateX5),
			segName(1):  cat(commitX5),
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			d, err := OpenDisk(Config{Dir: dir})
			if tc.want != nil {
				if err != nil {
					t.Fatalf("OpenDisk: %v", err)
				}
				defer d.Close()
				if got := d.State(); !got.Equal(tc.want) {
					t.Fatalf("recovered %v, want %v", got, tc.want)
				}
				return
			}
			if err == nil {
				d.Close()
				t.Fatalf("OpenDisk admitted a retired-format log (state %v)", d.State())
			}
			if !errors.Is(err, errRetiredFormat) {
				t.Fatalf("OpenDisk error %v, want errRetiredFormat", err)
			}
			for name, data := range tc.files {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatalf("%s gone after the refused open: %v", name, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s modified by the refused open", name)
				}
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if _, ok := tc.files[e.Name()]; !ok && e.Name() != lockFileName {
					t.Errorf("refused open left %s behind", e.Name())
				}
			}
		})
	}
}

// applyTx runs one write transaction through the Backend interface: each
// (var, value) pair becomes a write step storing the value.
func applyTx(t *testing.T, be Backend, tx int, writes []walWrite) {
	t.Helper()
	for _, w := range writes {
		w := w
		step := core.Step{Var: w.v, Kind: core.Write, Fn: func([]core.Value) core.Value { return w.val }}
		if err := be.ApplyStep(tx, step); err != nil {
			t.Fatalf("ApplyStep tx %d on %s: %v", tx, w.v, err)
		}
	}
}

func dbEqual(a, b core.DB) bool {
	if len(a) != len(b) {
		return false
	}
	for v, val := range a {
		if b[v] != val {
			return false
		}
	}
	return true
}

// TestDiskBackendContract exercises the write-buffered Backend surface:
// read-your-writes, isolation of uncommitted writes, commit permanence,
// rollback atomicity, and the durability core — State() survives Close +
// OpenDisk byte for byte.
func TestDiskBackendContract(t *testing.T) {
	t.Run("buffered", func(t *testing.T) {
		dir := t.TempDir()
		d, err := NewDisk(Config{Dir: dir, Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		init := core.DB{"x": 1, "y": 2}
		d.Reset(init)

		applyTx(t, d, 0, []walWrite{{v: "x", val: 10}, {v: "z", val: 30}})
		if got := d.Get(0, "x"); got != 10 {
			t.Fatalf("read-your-writes: Get(x) = %d, want 10", got)
		}
		if got := d.Get(1, "x"); got != 1 {
			t.Fatalf("buffered isolation: other tx sees %d for x, want committed 1", got)
		}
		d.Commit(0)

		applyTx(t, d, 1, []walWrite{{v: "y", val: 20}, {v: "w", val: 40}})
		d.Rollback(1)

		want := core.DB{"x": 10, "y": 2, "z": 30}
		if got := d.State(); !dbEqual(got, want) {
			t.Fatalf("state after commit+rollback = %v, want %v", got, want)
		}

		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDisk(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got := r.State(); !dbEqual(got, want) {
			t.Fatalf("recovered state = %v, want %v", got, want)
		}
		if ds := r.DurabilityStats(); ds.WALTruncated != 0 {
			t.Fatalf("clean close recovered with WALTruncated=%d", ds.WALTruncated)
		}
		if ds := r.DurabilityStats(); ds.RecoveryNs <= 0 {
			t.Fatalf("RecoveryNs not recorded")
		}
	})
}

// TestDiskSegmentRoll forces segment rotation with a tiny segment cap and
// checks recovery replays across the segment boundary.
func TestDiskSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, SegmentBytes: 128, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(core.DB{})
	want := core.DB{}
	for i := 0; i < 200; i++ {
		v := core.Var(bytes.Repeat([]byte{'a' + byte(i%26)}, 3))
		applyTx(t, d, i, []walWrite{{v: v, val: core.Value(i)}})
		d.Commit(i)
		want[v] = core.Value(i)
	}
	if d.seq < 3 {
		t.Fatalf("segment cap 128 produced only %d segments", d.seq)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.State(); !dbEqual(got, want) {
		t.Fatalf("recovered state across segments = %v, want %v", got, want)
	}
}

// TestDiskRegistry builds the backend through the storage.New registry.
func TestDiskRegistry(t *testing.T) {
	be, err := New("disk", Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	d := be.(*Disk)
	d.Reset(core.DB{"x": 1})
	applyTx(t, d, 0, []walWrite{{v: "x", val: 5}})
	d.Commit(0)
	if got := d.State()["x"]; got != 5 {
		t.Fatalf("registry disk backend: x = %d, want 5", got)
	}
	if _, ok := be.(DurableBackend); !ok {
		t.Fatalf("disk backend does not implement DurableBackend")
	}
	d.Close()
}

// TestDiskFsyncPolicies checks the sync accounting each policy implies:
// always syncs per commit, group syncs only on GroupSync, never never.
func TestDiskFsyncPolicies(t *testing.T) {
	commitN := func(d *Disk, n int) {
		for i := 0; i < n; i++ {
			applyTx(t, d, i, []walWrite{{v: "x", val: core.Value(i)}})
			d.Commit(i)
		}
	}
	d, _ := NewDisk(Config{Dir: t.TempDir(), Fsync: FsyncAlways})
	d.Reset(core.DB{})
	base := d.DurabilityStats().Fsyncs
	commitN(d, 5)
	if got := d.DurabilityStats().Fsyncs - base; got != 5 {
		t.Errorf("always: %d fsyncs for 5 commits, want 5", got)
	}
	if err := d.GroupSync(); err != nil {
		t.Errorf("always: GroupSync on clean log: %v", err)
	}
	if got := d.DurabilityStats().Fsyncs - base; got != 5 {
		t.Errorf("always: GroupSync on clean log added a sync (%d total)", got)
	}
	d.Close()

	d, _ = NewDisk(Config{Dir: t.TempDir(), Fsync: FsyncGroup})
	d.Reset(core.DB{})
	base = d.DurabilityStats().Fsyncs
	commitN(d, 5)
	if got := d.DurabilityStats().Fsyncs - base; got != 0 {
		t.Errorf("group: %d fsyncs before GroupSync, want 0", got)
	}
	if err := d.GroupSync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DurabilityStats().Fsyncs - base; got != 1 {
		t.Errorf("group: %d fsyncs after one GroupSync, want 1", got)
	}
	d.Close()

	d, _ = NewDisk(Config{Dir: t.TempDir(), Fsync: FsyncNever})
	d.Reset(core.DB{})
	base = d.DurabilityStats().Fsyncs
	commitN(d, 5)
	if err := d.GroupSync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DurabilityStats().Fsyncs - base; got != 0 {
		t.Errorf("never: %d fsyncs, want 0", got)
	}
	d.Close()
}

// TestParseFsyncPolicy covers the CLI mapping both ways.
func TestParseFsyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "group", "never"} {
		p, err := ParseFsyncPolicy(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if p.String() != s {
			t.Errorf("round trip %q -> %v -> %q", s, p, p.String())
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted garbage")
	}
}
