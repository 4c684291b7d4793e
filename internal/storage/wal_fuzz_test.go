package storage

import (
	"testing"

	"optcc/internal/core"
)

// FuzzWALScan feeds arbitrary bytes to the segment scanner: it must never
// panic, its valid prefix must fit the input and end cleanly exactly when
// it covers it, and the prefix it trusts must rescan clean to the same
// records — a corrupt byte can shorten the trusted log but never make the
// scanner admit a frame it would not admit again on its own.
func FuzzWALScan(f *testing.F) {
	var enc walEncoder
	var log []byte
	log = append(log, enc.encodeSnapshot(core.DB{"x": 1, "y": -2})...)
	log = append(log, enc.encodeCommit(1, []walWrite{{v: "x", val: 5}, {v: "z", val: 1 << 40}})...)
	log = append(log, enc.encodeCkpt(1, 2, 345)...)
	log = append(log, enc.encodeCommit(2, nil)...)
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(append(append([]byte(nil), log...), make([]byte, 16)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		valid, clean := walScan(data, func(walRec) { n++ })
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if clean != (valid == len(data)) {
			t.Fatalf("clean=%v with valid=%d of %d bytes", clean, valid, len(data))
		}
		m := 0
		valid2, clean2 := walScan(data[:valid], func(walRec) { m++ })
		if !clean2 || valid2 != valid || m != n {
			t.Fatalf("rescan of the valid prefix: valid=%d clean=%v records=%d, want %d true %d",
				valid2, clean2, m, valid, n)
		}
	})
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint decoder: it
// must never panic, and an image it admits must be exactly a header
// marker with a usable anchor followed by one snapshot, whose contents
// the image carries.
func FuzzLoadCheckpoint(f *testing.F) {
	var enc walEncoder
	img := append([]byte(nil), enc.encodeCkpt(3, 7, 1234)...)
	img = append(img, enc.encodeSnapshot(core.DB{"x": 1, "y": -2})...)
	f.Add(img)
	f.Add(img[:len(img)-1])
	f.Add(append(append([]byte(nil), img...), enc.encodeSnapshot(core.DB{"x": 2})...))
	f.Add(append(append([]byte(nil), img...), enc.encodeCommit(1, []walWrite{{v: "x", val: 9}})...))
	negAnchor := append([]byte(nil), enc.encodeCkpt(3, 7, -1)...)
	f.Add(append(negAnchor, enc.encodeSnapshot(core.DB{"x": 1})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		var recs []walRec
		valid, clean := walScan(data, func(r walRec) { recs = append(recs, r) })
		if !clean || valid != got.bytes {
			t.Fatalf("admitted image scans valid=%d clean=%v, image claims %d bytes", valid, clean, got.bytes)
		}
		if len(recs) != 2 || recs[0].kind != walCkpt || recs[1].kind != walSnapshot {
			t.Fatalf("admitted image is not header + one snapshot: %d records", len(recs))
		}
		if got.aseq != recs[0].aseq || got.aoff != recs[0].aoff || got.aoff < 0 {
			t.Fatalf("admitted anchor %d:%d, header says %d:%d", got.aseq, got.aoff, recs[0].aseq, recs[0].aoff)
		}
		want := core.DB{}
		for _, w := range recs[1].writes {
			want[w.v] = w.val
		}
		if !got.table.Equal(want) {
			t.Fatalf("admitted table %v, snapshot holds %v", got.table, want)
		}
	})
}
