package segstore

import (
	"path/filepath"
	"testing"
)

// BenchmarkFlushSegment measures one demotion flush: writing a segment
// of 64 summaries (records + footer + trailer, fsynced) and committing
// the manifest. This is the disk cost a store-backed archiver pays per
// demotion batch, amortized over the Puts that filled the batch.
func BenchmarkFlushSegment(b *testing.B) {
	proto := makeEntries(b, 64, 7, 0)
	bytes := 0
	for _, e := range proto {
		bytes += len(e.Blob)
	}
	st, err := Open(b.TempDir(), Options{Dim: 2, NoBackgroundCompaction: true, TargetSegmentBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries := make([]FlushEntry, len(proto))
		for j, e := range proto {
			e.ID = int64(i*len(proto) + j) // ids are globally unique in a store
			entries[j] = e
		}
		if err := st.Flush(entries); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes*b.N)/b.Elapsed().Seconds()/(1<<20), "MB/sec")
}

// BenchmarkScanSegment measures the fused filter+gate scan over one
// segment — the per-segment cost of the disk tier's filter phase — in
// both formats: v3 (linear scan of the mapped feats column) against v2
// (the legacy serialized-index probe rebuilt into an in-memory feature
// grid). The gate rejects everything, so allocs/op pins the
// zero-allocation property of the v3 scan itself.
func BenchmarkScanSegment(b *testing.B) {
	entries := makeEntries(b, 256, 7, 0)
	for _, f := range []struct {
		name  string
		write func(string, int, []FlushEntry) error
	}{{"v3", writeSegment}, {"v2", writeSegmentV2}} {
		b.Run(f.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "scan"+segSuffix)
			if err := f.write(path, 2, entries); err != nil {
				b.Fatal(err)
			}
			seg, err := OpenSegment(path)
			if err != nil {
				b.Fatal(err)
			}
			defer seg.close()
			lo := [4]float64{0, 0, 0, 0}
			hi := [4]float64{1e9, 1e9, 1e9, 1e9}
			gate := func([4]float64) bool { return false }
			visit := func(Record) bool { return true }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, _ := seg.GatedSearchFeatures(lo, hi, gate, visit); n != len(entries) {
					b.Fatal("scan missed records")
				}
			}
		})
	}
}

// BenchmarkLoadRecord measures one refine-phase summary load from a
// segment, mmap (zero-copy decode) vs pread (pooled scratch buffer).
func BenchmarkLoadRecord(b *testing.B) {
	entries := makeEntries(b, 64, 7, 0)
	path := filepath.Join(b.TempDir(), "load"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"mmap", true}, {"pread", false}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := SetMmapEnabled(mode.on)
			defer SetMmapEnabled(prev)
			seg, err := OpenSegment(path)
			if err != nil {
				b.Fatal(err)
			}
			defer seg.close()
			if seg.Mapped() != mode.on {
				b.Skipf("mmap availability mismatch (mapped=%v)", seg.Mapped())
			}
			recs := seg.Records()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := seg.Load(recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
