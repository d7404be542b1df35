package core

import (
	"slices"
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/window"
)

// checkNeighborLists asserts the neighbor-list invariant on the live
// window state: a safe core holds no list, and every other live object's
// list, once its expired entries are dropped, holds exactly its live
// neighbors as a brute-force range query over the whole window finds them.
// It returns how many live objects were safe and how many were not.
func checkNeighborLists(t *testing.T, ex *Extractor) (safe, growing int) {
	t.Helper()
	var live []*object
	for _, c := range ex.cells {
		live = append(live, c.objs...)
	}
	r2 := ex.cfg.ThetaR * ex.cfg.ThetaR
	for _, o := range live {
		if safeCore(o) {
			safe++
			if o.nbrs != nil {
				t.Fatalf("window %d: safe core %d keeps a %d-entry neighbor list", ex.cur, o.id, len(o.nbrs))
			}
			continue
		}
		growing++
		var want, got []int64
		for _, q := range live {
			if q != o && geom.DistSq(o.p, q.p) <= r2 {
				want = append(want, q.id)
			}
		}
		for _, q := range o.nbrs {
			if q.last >= ex.cur {
				got = append(got, q.id)
			}
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("window %d: object %d (coreLast %d, last %d) lists live neighbors %v, want %v",
				ex.cur, o.id, o.coreLast, o.last, got, want)
		}
	}
	return safe, growing
}

// TestSafeCoreNeighborLists drives a dense stream through Push and through
// PushBatch at workers 1 and 4, checking the neighbor-list invariant after
// every emitted window, every window against the DBSCAN oracle, and the
// batched windows byte for byte against the Push loop.
func TestSafeCoreNeighborLists(t *testing.T) {
	const slide = 300
	pts := batchStream(4000, 2, 42)
	base := Config{
		Dim: 2, ThetaR: 0.7, ThetaC: 4,
		Window: window.Spec{Win: 1500, Slide: slide},
	}
	var want []byte
	for _, mode := range []struct {
		name    string
		batch   int // 0 = one Push per tuple
		workers int
	}{
		{"push", 0, 1},
		{"batch/workers1", 250, 1},
		{"batch/workers4", 250, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := base
			cfg.Workers = mode.workers
			ex, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			log := &tupleLog{}
			var out []*WindowResult
			var safe, growing int
			// Each step pushes one tuple (Push) or one batch (PushBatch)
			// and checks the state whenever the step completed a window.
			step := 1
			if mode.batch > 0 {
				step = mode.batch
			}
			for lo := 0; lo < len(pts); lo += step {
				hi := min(lo+step, len(pts))
				var emitted []*WindowResult
				if mode.batch == 0 {
					_, emitted, err = ex.Push(pts[lo], 0)
				} else {
					emitted, err = ex.PushBatch(pts[lo:hi], nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := lo; i < hi; i++ {
					log.add(int64(i), pts[i], int64(i))
				}
				for _, r := range emitted {
					verifyWindow(t, ex, log, r)
				}
				if len(emitted) > 0 {
					s, g := checkNeighborLists(t, ex)
					safe += s
					growing += g
				}
				out = append(out, emitted...)
			}
			last := ex.Flush()
			verifyWindow(t, ex, log, last)
			out = append(out, last)
			if safe == 0 || growing == 0 {
				t.Fatalf("stream exercised %d safe and %d growing objects; want both > 0", safe, growing)
			}
			got := encodeWindows(t, out)
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Fatalf("%s: windows differ from the Push loop", mode.name)
			}
		})
	}
}
