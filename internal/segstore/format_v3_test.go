package segstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"streamsum/internal/geom"
)

// reformatSegment rewrites an existing segment file in place in the
// given legacy format, preserving its records (the manifest lists file
// names only, so a store reopens the rewritten file transparently).
func reformatSegment(t *testing.T, path string, version int) {
	t.Helper()
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []FlushEntry
	for _, r := range seg.Records() {
		blob, err := seg.LoadBlob(r)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, FlushEntry{
			ID: r.ID, Blob: append([]byte{}, blob...), MBR: r.MBR, Feat: r.Feat,
		})
	}
	dim := seg.Dim()
	if err := seg.close(); err != nil {
		t.Fatal(err)
	}
	tmp := path + ".tmp"
	if err := writeSegmentV2(tmp, dim, entries); err != nil {
		t.Fatal(err)
	}
	if version == 1 {
		// Strip the v2 zone block and restamp the footer as v1 — the
		// same rewrite TestSegmentZone performs.
		raw, err := os.ReadFile(tmp)
		if err != nil {
			t.Fatal(err)
		}
		footerOff := int64(len(raw)) - trailerSize
		origOff := footerOffOf(t, raw)
		footer := append([]byte{}, raw[origOff:footerOff]...)
		copy(footer[:8], footerMagicV1[:])
		footer = footer[:len(footer)-zoneSize(dim)]
		out := append(append([]byte{}, raw[:origOff]...), footer...)
		var tr [trailerSize]byte
		binary.LittleEndian.PutUint64(tr[0:], uint64(origOff))
		binary.LittleEndian.PutUint32(tr[8:], uint32(len(footer)))
		binary.LittleEndian.PutUint32(tr[12:], crc32.ChecksumIEEE(footer))
		copy(tr[16:], endMagic[:])
		out = append(out, tr[:]...)
		if err := os.WriteFile(tmp, out, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// footerOffOf reads a segment file's footer offset from its trailer.
func footerOffOf(t *testing.T, raw []byte) int64 {
	t.Helper()
	if len(raw) < trailerSize {
		t.Fatal("segment too short")
	}
	return int64(binary.LittleEndian.Uint64(raw[len(raw)-trailerSize:]))
}

// TestMixedFormatStore: a store holding v1, v2 and v3 segments at once
// must open, serve queries from every segment, compact into the current
// format and reopen clean.
func TestMixedFormatStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Dim: 2, TargetSegmentBytes: 1 << 20, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	var all []FlushEntry
	for i := 0; i < 3; i++ {
		batch := makeEntries(t, 4, int64(20+i), int64(100*i))
		all = append(all, batch...)
		if err := st.Flush(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite segment 0 as v2 and segment 1 as v1; segment 2 stays v3.
	reformatSegment(t, filepath.Join(dir, "seg-00000000"+segSuffix), 2)
	reformatSegment(t, filepath.Join(dir, "seg-00000001"+segSuffix), 1)

	st2, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatalf("mixed-format store rejected: %v", err)
	}
	v := st2.View()
	var formats []int
	for _, seg := range v.Segments() {
		formats = append(formats, seg.Format())
	}
	if !reflect.DeepEqual(formats, []int{2, 1, 3}) {
		t.Fatalf("segment formats = %v", formats)
	}
	// Every record is reachable and loads across all three formats, and
	// gated probes agree with a linear scan.
	for _, e := range all {
		seg, r, ok := v.Get(e.ID)
		if !ok {
			t.Fatalf("id %d missing from mixed store", e.ID)
		}
		blob, err := seg.LoadBlob(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(e.Blob) {
			t.Fatalf("id %d: blob mismatch after reformat", e.ID)
		}
	}
	for _, seg := range v.Segments() {
		for _, r := range seg.Records() {
			hit := false
			probed, _ := seg.GatedSearchFeatures(r.Feat, r.Feat, nil, func(got Record) bool {
				if got.ID == r.ID {
					hit = true
					return false
				}
				return true
			})
			if !hit || probed == 0 {
				t.Fatalf("format v%d: point probe missed record %d", seg.Format(), r.ID)
			}
		}
	}

	// Compaction rewrites the mixed set into one current-format segment.
	if err := st2.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Segments != 1 {
		t.Fatalf("segments after compaction: %d", s.Segments)
	}
	if got := st2.View().Segments()[0].Format(); got != 3 {
		t.Fatalf("compacted segment format = v%d", got)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatalf("reopen after mixed compaction: %v", err)
	}
	defer st3.Close()
	var ids []int64
	for _, seg := range st3.View().Segments() {
		for _, r := range seg.Records() {
			ids = append(ids, r.ID)
		}
	}
	if len(ids) != len(all) {
		t.Fatalf("records after reopen: %d want %d", len(ids), len(all))
	}
	for i, e := range all {
		if ids[i] != e.ID {
			t.Fatalf("FIFO order broken at %d: %d want %d", i, ids[i], e.ID)
		}
	}
}

// TestV3CorruptionRejected flips bytes inside the columnar region and
// the footer: the region CRCs must reject the file whole. (The
// recovery sweep in TestSegstoreRecovery covers truncation — torn
// columnar and torn blob regions — at every byte offset.)
func TestV3CorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 6, 9, 0)
	path := filepath.Join(dir, "flip"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	colLen, _ := seg.Regions()
	if err := seg.close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One flip near the start, middle and end of the columnar region,
	// and one in the footer's zone block.
	footerOff := footerOffOf(t, raw)
	flips := []int{
		len(segMagicV3),
		len(segMagicV3) + colLen/2,
		len(segMagicV3) + colLen - 1,
		int(footerOff) + footerV3Head + 3,
	}
	for _, off := range flips {
		bad := append([]byte{}, raw...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o666); err != nil {
			t.Fatal(err)
		}
		if seg, err := OpenSegment(path); err == nil {
			seg.close()
			t.Fatalf("byte %d corrupted but segment accepted", off)
		}
	}
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	seg2, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("intact segment rejected after flips: %v", err)
	}
	seg2.close()
}

// TestV3PreadFallback disables mmap and checks the full read path —
// open, probe, load — behaves identically on the pread fallback.
func TestV3PreadFallback(t *testing.T) {
	prev := SetMmapEnabled(false)
	defer SetMmapEnabled(prev)

	entries := makeEntries(t, 8, 11, 0)
	path := filepath.Join(t.TempDir(), "fallback"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	if seg.Mapped() {
		t.Fatal("segment mapped with mmap disabled")
	}
	if seg.Format() != 3 {
		t.Fatalf("format = v%d", seg.Format())
	}
	for _, e := range entries {
		r, ok := seg.Get(e.ID)
		if !ok {
			t.Fatalf("id %d missing", e.ID)
		}
		blob, err := seg.LoadBlob(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(e.Blob) {
			t.Fatalf("id %d: blob mismatch on pread path", e.ID)
		}
		if _, err := seg.Load(r); err != nil {
			t.Fatal(err)
		}
	}
	// Scans read the heap copy of the columns; results must match the
	// mapped path (checked against a linear scan here).
	q := entries[2].MBR
	want := 0
	for _, e := range entries {
		if e.MBR.Intersects(q) {
			want++
		}
	}
	got := 0
	probed, _ := seg.GatedSearchLocation(q, nil, func(Record) bool { got++; return true })
	if got != want || probed != want {
		t.Fatalf("pread location scan: got=%d probed=%d want=%d", got, probed, want)
	}
}

// TestV3ScanZeroAlloc pins the headline property: a fused filter+gate
// scan over a mapped v3 segment performs zero allocations when the gate
// rejects every candidate.
func TestV3ScanZeroAlloc(t *testing.T) {
	entries := makeEntries(t, 16, 13, 0)
	path := filepath.Join(t.TempDir(), "alloc"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()

	lo := [4]float64{0, 0, 0, 0}
	hi := [4]float64{1e9, 1e9, 1e9, 1e9}
	gate := func([4]float64) bool { return false }
	visit := func(Record) bool { return true }
	mbr, _, _ := seg.Zone()
	q := geom.MBR{Min: append(geom.Point{}, mbr.Min...), Max: append(geom.Point{}, mbr.Max...)}

	if n := testing.AllocsPerRun(100, func() {
		if n, _ := seg.GatedSearchFeatures(lo, hi, gate, visit); n != len(entries) {
			t.Fatal("feature scan missed records")
		}
	}); n != 0 {
		t.Fatalf("feature filter+gate scan allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if n, _ := seg.GatedSearchLocation(q, gate, visit); n != len(entries) {
			t.Fatal("location scan missed records")
		}
	}); n != 0 {
		t.Fatalf("location filter+gate scan allocates %.1f/op", n)
	}
}
