package streamsum

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/core"
	"streamsum/internal/gen"
	"streamsum/internal/match"
	"streamsum/internal/stream"
	"streamsum/internal/window"
)

// TestShardedPutWithConcurrentMatching is the acceptance scenario for
// the snapshot-isolated pattern base: N sharded engines feed one base
// through stream.ArchiveWindows (one PutBatch per window) while analyst
// goroutines run matching queries against the same base the whole time.
// Run with -race; completion also proves the old reader/writer deadlock
// is gone.
func TestShardedPutWithConcurrentMatching(t *testing.T) {
	const shards = 4
	base, err := archive.New(archive.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}

	procs := make([]stream.Processor, shards)
	for i := range procs {
		eng, err := core.New(core.Config{
			Dim: 2, ThetaR: 1.0, ThetaC: 4,
			Window: window.Spec{Win: 600, Slide: 300},
		})
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = eng
	}
	sh := &stream.Sharded{
		Procs:     procs,
		OnWindow:  stream.ArchiveWindows(base, nil),
		FlushTail: true,
	}

	// Matching targets built independently of the stream.
	rng := rand.New(rand.NewSource(7))
	var pts []Point
	for i := 0; i < 300; i++ {
		pts = append(pts, Point{20 + rng.NormFloat64(), 20 + rng.NormFloat64()})
	}
	cls, err := SummarizeStatic(pts, 1.0, 4)
	if err != nil || len(cls) == 0 {
		t.Fatalf("no static target: %v", err)
	}
	target := cls[0].Summary

	data := gen.GMTI(gen.GMTIConfig{Seed: 3}, 12000)
	runDone := make(chan error, 1)
	go func() {
		_, err := sh.Run(context.Background(), stream.FromSlice(data.Points, data.TS))
		runDone <- err
	}()

	// Analysts hammer the base for the whole run: fresh-snapshot queries
	// and pinned-snapshot queries side by side.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := match.Query{Target: target, Threshold: 0.6, Limit: 5, Workers: 2}
				if m == 0 {
					if _, _, err := match.Run(base.Snapshot(), q); err != nil {
						t.Error(err)
						return
					}
				} else {
					snap := base.Snapshot()
					r1, s1, err := match.Run(snap, q)
					if err != nil {
						t.Error(err)
						return
					}
					r2, s2, err := match.Run(snap, q)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(r1, r2) || s1 != s2 {
						t.Error("same snapshot, different answers")
						return
					}
				}
			}
		}(m)
	}

	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if base.Len() == 0 {
		t.Fatal("sharded run archived nothing")
	}
}
