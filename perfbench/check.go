package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"streamsum"
	"streamsum/internal/archive"
	"streamsum/internal/match"
	"streamsum/internal/sgs"
)

// checks collects output-check failures. Checks run outside the timed
// phases and outside set-up; any failure marks the run incorrect.
type checks struct {
	failures []string
}

func (ck *checks) failf(format string, args ...any) {
	ck.failures = append(ck.failures, fmt.Sprintf(format, args...))
}

func (ck *checks) ok() bool { return len(ck.failures) == 0 }

// batchEqualsPush checks that PushBatch at the workload's worker count
// emits the same windows as a sequential Push loop, comparing encoded
// summaries byte for byte.
func (ck *checks) batchEqualsPush(c sizes, slides [][]streamsum.Point) {
	o := c.options("")
	o.Archive = nil
	batch, err := streamsum.New(o)
	if err != nil {
		ck.failf("batch-vs-push: %v", err)
		return
	}
	seq, err := streamsum.New(o)
	if err != nil {
		ck.failf("batch-vs-push: %v", err)
		return
	}
	defer batch.Close()
	defer seq.Close()
	var a, b []*streamsum.WindowResult
	for _, s := range slides {
		ws, err := batch.PushBatch(s, nil)
		if err != nil {
			ck.failf("batch-vs-push: PushBatch: %v", err)
			return
		}
		a = append(a, ws...)
		for _, p := range s {
			ws, err := seq.Push(p, 0)
			if err != nil {
				ck.failf("batch-vs-push: Push: %v", err)
				return
			}
			b = append(b, ws...)
		}
	}
	if err := sameWindows(a, b); err != nil {
		ck.failf("batch-vs-push: %v", err)
	}
}

func sameWindows(a, b []*streamsum.WindowResult) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d windows vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return fmt.Errorf("no window closed")
	}
	for i := range a {
		if a[i].Window != b[i].Window || len(a[i].Clusters) != len(b[i].Clusters) {
			return fmt.Errorf("window %d differs", a[i].Window)
		}
		for j := range a[i].Clusters {
			if !bytes.Equal(sgs.Marshal(a[i].Clusters[j].Summary), sgs.Marshal(b[i].Clusters[j].Summary)) {
				return fmt.Errorf("window %d cluster %d: summaries differ", a[i].Window, j)
			}
		}
	}
	return nil
}

// pickSample draws a seeded sample of k recorded queries.
func pickSample(seed int64, recorded []oneShot, k int) []oneShot {
	rng := rand.New(rand.NewSource(seed ^ 0xc4ec))
	idx := rng.Perm(len(recorded))
	var out []oneShot
	for _, i := range idx[:min(k, len(idx))] {
		out = append(out, recorded[i])
	}
	return out
}

// sampledMatches checks each sampled query's result against a brute-force
// reference over every entry of the base it ran against.
func (ck *checks) sampledMatches(c sizes, sample []oneShot) {
	if len(sample) == 0 {
		ck.failf("match: no query to check")
	}
	for _, q := range sample {
		want, err := bruteForce(q.base, q.target, c.Threshold, c.Limit)
		if err != nil {
			ck.failf("match reference: %v", err)
			return
		}
		if err := sameMatches(q.got, want); err != nil {
			ck.failf("match: %v", err)
			return
		}
	}
}

type ref struct {
	id   int64
	dist float64
}

// bruteForce is the matching reference: the cluster-level feature gate
// and the grid-cell-level RefineDistance over every archived entry,
// sorted by (distance, id) and cut at limit.
func bruteForce(snap *archive.Snapshot, target *sgs.Summary, threshold float64, limit int) ([]ref, error) {
	w := match.EqualWeights()
	tf := target.Features().Vector()
	var out []ref
	var err error
	snap.All(func(e *archive.Entry) bool {
		if match.FeatureDistance(tf, e.Features.Vector(), w) > threshold {
			return true
		}
		var s *sgs.Summary
		if s, err = e.LoadSummary(); err != nil {
			return false
		}
		if d := match.RefineDistance(target, s, w, match.DefaultAlignBudget); d <= threshold {
			out = append(out, ref{e.ID, d})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].id < out[j].id
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, err
}

func sameMatches(got []streamsum.Match, want []ref) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].id || got[i].Distance != want[i].dist {
			return fmt.Errorf("result %d is (%d, %v), reference (%d, %v)",
				i, got[i].ID, got[i].Distance, want[i].id, want[i].dist)
		}
	}
	return nil
}

// orderedMatches checks every recorded result for the properties that
// hold whatever the base held when it ran: within the threshold, within
// the limit, and sorted by (distance, id).
func (ck *checks) orderedMatches(c sizes, recorded []oneShot) {
	for _, q := range recorded {
		if len(q.got) > c.Limit {
			ck.failf("match: %d results over limit %d", len(q.got), c.Limit)
			return
		}
		for i, m := range q.got {
			if m.Distance > c.Threshold {
				ck.failf("match: distance %v over threshold", m.Distance)
				return
			}
			if i > 0 && (m.Distance < q.got[i-1].Distance ||
				m.Distance == q.got[i-1].Distance && m.ID <= q.got[i-1].ID) {
				ck.failf("match: results out of (distance, id) order")
				return
			}
		}
	}
}

// events checks that each event's distance is the recomputed
// RefineDistance to its subscription's target and within the threshold,
// and that each subscription's events ascend by (Seq, EntryID).
func (ck *checks) events(c sizes, targets []*streamsum.Summary, events [][]streamsum.SubEvent) {
	w := match.EqualWeights()
	for i, evs := range events {
		for j, ev := range evs {
			if ev.Kind != streamsum.SubMatch || ev.Entry == nil || ev.Entry.Summary == nil {
				ck.failf("sub %d: malformed event", i)
				return
			}
			d := match.RefineDistance(targets[i], ev.Entry.Summary, w, match.DefaultAlignBudget)
			if d != ev.Distance || d > c.SubThreshold {
				ck.failf("sub %d: event distance %v, recomputed %v", i, ev.Distance, d)
				return
			}
			if j > 0 {
				p := evs[j-1]
				if ev.Seq < p.Seq || ev.Seq == p.Seq && ev.EntryID <= p.EntryID {
					ck.failf("sub %d: events out of (seq, entry) order", i)
					return
				}
			}
		}
	}
}

// tieredStore checks that the disk tier is in the state tiered_mixed is
// meant to exercise: segments exist and every one is memory-mapped.
func (ck *checks) tieredStore(ts archive.TierStats) {
	if ts.Segments == 0 {
		ck.failf("tiered_mixed: no segment on disk")
	}
	if ts.SegmentsMapped != ts.Segments {
		ck.failf("tiered_mixed: %d of %d segments mapped", ts.SegmentsMapped, ts.Segments)
	}
}

// reopen checks that the closed store reopens with every entry.
func (ck *checks) reopen(c sizes, dir string, want int) {
	eng, err := streamsum.New(c.options(dir))
	if err != nil {
		ck.failf("reopen: %v", err)
		return
	}
	if got := eng.PatternBase().Len(); got != want {
		ck.failf("reopen: %d entries, %d before close", got, want)
	}
	if err := eng.Close(); err != nil {
		ck.failf("reopen: close: %v", err)
	}
}
