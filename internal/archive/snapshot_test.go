package archive

import (
	"sync"
	"testing"
)

// TestSnapshotIsolation pins a snapshot and verifies later mutations are
// invisible to it while a fresh snapshot sees them.
func TestSnapshotIsolation(t *testing.T) {
	b, _ := New(Config{Dim: 2})
	sums := fixtureSummaries(t, 20, 31)
	for _, s := range sums[:10] {
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatal(err)
		}
	}
	snap := b.Snapshot()
	if snap.Len() != 10 {
		t.Fatalf("snapshot Len = %d", snap.Len())
	}
	if again := b.Snapshot(); again != snap {
		t.Fatal("unchanged base must return the cached snapshot")
	}

	var removedID int64 = 3
	for _, s := range sums[10:] {
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatal(err)
		}
	}
	if !b.Remove(removedID) {
		t.Fatal("Remove failed")
	}

	// The pinned view is frozen in time.
	if snap.Len() != 10 {
		t.Fatalf("pinned snapshot Len changed to %d", snap.Len())
	}
	if snap.Get(removedID) == nil {
		t.Fatal("pinned snapshot lost a removed entry")
	}
	count := 0
	snap.All(func(e *Entry) bool { count++; return true })
	if count != 10 {
		t.Fatalf("pinned snapshot All visited %d", count)
	}

	// A fresh snapshot observes everything.
	fresh := b.Snapshot()
	if fresh == snap {
		t.Fatal("mutation did not invalidate the cached snapshot")
	}
	if fresh.Len() != 19 {
		t.Fatalf("fresh snapshot Len = %d, want 19", fresh.Len())
	}
	if fresh.Get(removedID) != nil {
		t.Fatal("fresh snapshot still has the removed entry")
	}
}

// TestMutateDuringVisit is the regression test for the callback
// self-deadlock: Put and Remove called from inside All and shard probe
// visits must work (they used to deadlock on b.mu).
func TestMutateDuringVisit(t *testing.T) {
	sums := fixtureSummaries(t, 30, 32)
	b, _ := New(Config{Dim: 2})
	for _, s := range sums[:10] {
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatal(err)
		}
	}

	next := 10
	put := func(e *Entry) bool {
		if next < len(sums) {
			if _, ok, err := b.Put(sums[next]); err != nil || !ok {
				t.Fatalf("Put inside visit: ok=%v err=%v", ok, err)
			}
			next++
		}
		return true
	}
	b.All(put)
	searchLocation(b.Snapshot(), b.Get(0).MBR, put)
	searchFeatures(b.Snapshot(), [4]float64{0, 0, 0, 0}, [4]float64{1e9, 1e9, 1e9, 1e9}, put)
	if b.Len() <= 10 {
		t.Fatalf("Len = %d, puts from visits were lost", b.Len())
	}

	// Remove from inside a visit; the running iteration still sees the
	// snapshot it started from.
	seen := 0
	b.All(func(e *Entry) bool {
		seen++
		b.Remove(e.ID)
		return true
	})
	if seen == 0 {
		t.Fatal("no entries visited")
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after removing every visited entry", b.Len())
	}
}

// TestPutBatchMatchesSequentialPut verifies PutBatch is byte-for-byte
// equivalent to a Put loop: same policy decisions (including the
// sampling RNG sequence), same ids, same eviction outcomes.
func TestPutBatchMatchesSequentialPut(t *testing.T) {
	sums := fixtureSummaries(t, 40, 33)
	cfg := Config{Dim: 2, SampleRate: 0.7, Seed: 99, Capacity: 15}

	seq, _ := New(cfg)
	var wantIDs []int64
	var wantOK []bool
	for _, s := range sums {
		id, ok, err := seq.Put(s)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			wantIDs = append(wantIDs, id)
		}
		wantOK = append(wantOK, ok)
	}

	bat, _ := New(cfg)
	ids, oks, err := bat.PutBatch(sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(oks) != len(wantOK) {
		t.Fatalf("batch processed %d of %d", len(oks), len(wantOK))
	}
	gotIDs := ids[:0]
	for i, ok := range oks {
		if ok != wantOK[i] {
			t.Fatalf("summary %d: batch archived=%v, sequential=%v", i, ok, wantOK[i])
		}
		if ok {
			gotIDs = append(gotIDs, ids[i])
		}
	}
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("archived %d vs %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("id %d: batch %d, sequential %d", i, gotIDs[i], wantIDs[i])
		}
	}
	if seq.Len() != bat.Len() || seq.Bytes() != bat.Bytes() {
		t.Fatalf("Len/Bytes diverge: %d/%d vs %d/%d", seq.Len(), seq.Bytes(), bat.Len(), bat.Bytes())
	}
	var a, b []int64
	seq.All(func(e *Entry) bool { a = append(a, e.ID); return true })
	bat.All(func(e *Entry) bool { b = append(b, e.ID); return true })
	if len(a) != len(b) {
		t.Fatalf("All lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("All order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestGenerationFoldConsistency drives the base across several
// delta-fold rebuilds with interleaved removals and capacity evictions,
// checking the visible state against a mirror model after every phase.
func TestGenerationFoldConsistency(t *testing.T) {
	sums := fixtureSummaries(t, 30, 34)
	b, _ := New(Config{Dim: 2, Capacity: 120})

	type live struct{ id int64 }
	var fifo []live
	present := make(map[int64]bool)
	check := func(stage string) {
		t.Helper()
		if b.Len() != len(fifo) {
			t.Fatalf("%s: Len = %d, mirror %d", stage, b.Len(), len(fifo))
		}
		var got []int64
		b.All(func(e *Entry) bool { got = append(got, e.ID); return true })
		if len(got) != len(fifo) {
			t.Fatalf("%s: All visited %d, mirror %d", stage, len(got), len(fifo))
		}
		for i, l := range fifo {
			if got[i] != l.id {
				t.Fatalf("%s: All[%d] = %d, mirror %d", stage, i, got[i], l.id)
			}
		}
		for _, l := range fifo {
			if b.Get(l.id) == nil {
				t.Fatalf("%s: Get(%d) lost a live entry", stage, l.id)
			}
		}
	}

	// 400 puts: crosses the fold threshold and the capacity bound many
	// times (threshold at 120 live entries is 32+120/8 = 47 pending).
	for i := 0; i < 400; i++ {
		id, ok, err := b.Put(sums[i%len(sums)])
		if err != nil || !ok {
			t.Fatal(err)
		}
		fifo = append(fifo, live{id})
		present[id] = true
		if len(fifo) > 120 { // capacity eviction, FIFO
			delete(present, fifo[0].id)
			fifo = fifo[1:]
		}
		// Interleave removals: every 7th put removes the current middle.
		if i%7 == 3 {
			victim := fifo[len(fifo)/2]
			if !b.Remove(victim.id) {
				t.Fatalf("Remove(%d) failed", victim.id)
			}
			delete(present, victim.id)
			fifo = append(fifo[:len(fifo)/2], fifo[len(fifo)/2+1:]...)
		}
		if i%53 == 0 {
			check("interleaved")
		}
	}
	check("final")

	// Every live entry is findable through both indices.
	for _, l := range fifo[:20] {
		e := b.Get(l.id)
		found := false
		searchLocation(b.Snapshot(), e.MBR, func(x *Entry) bool {
			if x.ID == l.id {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("entry %d missing from location search after folds", l.id)
		}
		v := e.Features.Vector()
		var lo, hi [4]float64
		for d := 0; d < 4; d++ {
			lo[d], hi[d] = v[d]*0.99, v[d]*1.01+1e-9
		}
		found = false
		searchFeatures(b.Snapshot(), lo, hi, func(x *Entry) bool {
			if x.ID == l.id {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("entry %d missing from feature search after folds", l.id)
		}
	}
}

// TestConcurrentPutBatchSearch hammers one base from writer and reader
// goroutines; run with -race it proves the snapshot path shares no
// mutable state with the append path.
func TestConcurrentPutBatchSearch(t *testing.T) {
	sums := fixtureSummaries(t, 24, 35)
	b, _ := New(Config{Dim: 2, Capacity: 200})
	const writers, readers, rounds = 3, 3, 40

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := sums[(w+r)%12 : (w+r)%12+8]
				if _, _, err := b.PutBatch(batch); err != nil {
					t.Error(err)
					return
				}
				if r%5 == 0 {
					b.Remove(int64(w*rounds + r))
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := b.Snapshot()
				n := 0
				snap.All(func(e *Entry) bool { n++; return true })
				if n != snap.Len() {
					t.Errorf("snapshot All visited %d, Len %d", n, snap.Len())
					return
				}
				searchFeatures(snap, [4]float64{0, 0, 0, 0},
					[4]float64{1e9, 1e9, 1e9, 1e9}, func(e *Entry) bool { return true })
			}
		}(r)
	}
	rg.Wait()
	if b.Len() == 0 {
		t.Fatal("nothing archived")
	}
}
