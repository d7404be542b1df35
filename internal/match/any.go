package match

import (
	"fmt"
	"sync/atomic"

	"streamsum/internal/archive"
	"streamsum/internal/par"
	"streamsum/internal/sgs"
)

// Any reports, for each target, whether snap holds at least one entry
// within q.Threshold — the existence form of Run, evaluated for a whole
// batch of targets in one filter-and-refine pass. The evolution-driven
// archiver uses it to novelty-test a completed window's summaries with
// one pass over the base instead of one full query per summary.
//
// Both phases share a single parallel fan-out across Query.Workers: the
// filter phase probes every (target, shard) combination, and the refine
// phase evaluates every surviving (target, candidate) pair, short-
// circuiting a target's remaining pairs once one match is found. The
// returned flags are byte-identical at every worker count (existence is
// order-independent); q.Target and q.Limit are ignored.
func Any(snap *archive.Snapshot, targets []*sgs.Summary, q Query) ([]bool, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	for i, t := range targets {
		if t == nil || t.NumCells() == 0 {
			return nil, fmt.Errorf("match: empty target %d", i)
		}
	}
	if q.Threshold < 0 || q.Threshold > 1 {
		return nil, fmt.Errorf("match: threshold %g out of [0,1]", q.Threshold)
	}
	w := EqualWeights()
	if q.Weights != nil {
		w = *q.Weights
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	budget := q.AlignBudget
	if budget <= 0 {
		budget = DefaultAlignBudget
	}

	probes := make([]archive.Probe, len(targets))
	for i, t := range targets {
		probes[i] = newProbe(t.Features().Vector(), t.MBR(), w, q.Threshold)
	}

	// --- Phase 1: filter — every (target, shard) probe is one task --------
	// The exact cluster-level feature gate runs inside the probe (fused
	// filter), so only surviving pairs ever materialize.
	shards := snap.Shards()
	cands := make([][]*archive.Entry, len(targets)*len(shards))
	par.ForEach(q.Workers, len(cands), func(k int) {
		cands[k], _ = probeShard(shards[k%len(shards)], probes[k/len(shards)])
	})

	// Flatten the surviving pairs.
	type pair struct {
		ti int
		e  *archive.Entry
	}
	var pairs []pair
	for k, part := range cands {
		ti := k / len(shards)
		for _, e := range part {
			pairs = append(pairs, pair{ti, e})
		}
	}

	// --- Phase 2: refine — all pairs share one fan-out --------------------
	// found is monotonic (false -> true), so racing workers can only skip
	// work, never change the outcome.
	found := make([]atomic.Bool, len(targets))
	errs := make([]error, len(pairs))
	par.ForEach(q.Workers, len(pairs), func(i int) {
		p := pairs[i]
		if found[p.ti].Load() {
			return
		}
		sum, err := p.e.LoadSummary()
		if err != nil {
			errs[i] = err
			return
		}
		if RefineDistance(targets[p.ti], sum, w, budget) <= q.Threshold {
			found[p.ti].Store(true)
		}
	})
	out := make([]bool, len(targets))
	for i := range out {
		out[i] = found[i].Load()
	}
	for i, err := range errs {
		// A load failure only matters if it could have flipped a flag.
		if err != nil && !out[pairs[i].ti] {
			return nil, err
		}
	}
	return out, nil
}
