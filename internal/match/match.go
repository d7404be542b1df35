package match

import (
	"fmt"
	"math"
	"sort"
	"time"

	"streamsum/internal/archive"
	"streamsum/internal/geom"
	"streamsum/internal/par"
	"streamsum/internal/sgs"
	"streamsum/internal/trace"
)

// DefaultAlignBudget is the alignment-search budget used when
// Query.AlignBudget is unset.
const DefaultAlignBudget = 64

// Weights configures the distance metric. The four feature weights must be
// non-negative and sum to 1.
type Weights struct {
	PositionSensitive bool
	Volume            float64
	Status            float64
	Density           float64
	Connectivity      float64
}

// EqualWeights gives every non-locational feature weight 0.25 (the setting
// used throughout the paper's experiments), position-insensitive.
func EqualWeights() Weights {
	return Weights{Volume: 0.25, Status: 0.25, Density: 0.25, Connectivity: 0.25}
}

// Validate checks the weight vector.
func (w Weights) Validate() error {
	for _, v := range []float64{w.Volume, w.Status, w.Density, w.Connectivity} {
		if v < 0 {
			return fmt.Errorf("match: negative weight %g", v)
		}
	}
	sum := w.Volume + w.Status + w.Density + w.Connectivity
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("match: weights sum to %g, want 1", sum)
	}
	return nil
}

// Query is one cluster matching query (Figure 3).
type Query struct {
	// Target is the to-be-matched cluster's SGS. Its resolution should
	// match the archive's (compress it first if needed).
	Target *sgs.Summary
	// Threshold is the maximum distance for a match (sim_threshold).
	Threshold float64
	// Weights configures the metric; zero value means EqualWeights.
	Weights *Weights
	// Limit, when positive, returns only the closest Limit matches
	// (top-k); the threshold still applies.
	Limit int
	// AlignBudget bounds the number of alignments evaluated by the anytime
	// search in the position-insensitive refine phase (default 64).
	AlignBudget int
	// Workers bounds the refine phase's parallel fan-out across
	// candidates: <= 0 means one worker per available CPU, 1 forces the
	// fully sequential pipeline. Results are byte-identical at every
	// setting.
	Workers int
	// Trace, when non-nil, receives the query's span tree: filter /
	// refine / order phase spans with wall times, per-shard child spans
	// under filter (segment label, format, zone admission), and pruning
	// attribution (segment probe/skip counts, cache hits vs disk loads)
	// as span attributes. Run records into the trace but neither
	// finishes nor discards it — the caller owns its lifetime. Tracing
	// never changes the result; it lives outside Stats so the
	// deterministic statistics stay exactly comparable across runs.
	Trace *trace.Trace
}

// Match is one result of a matching query.
type Match struct {
	ID       int64
	Distance float64
	Entry    *archive.Entry
}

// Stats reports filter-and-refine effectiveness: how many filter shards
// were probed, how many candidates the indexes returned and how many
// survived to the grid-cell-level match (the paper reports ~6% reaching
// the grid level, §8.2).
type Stats struct {
	FilterShards    int
	IndexCandidates int
	Refined         int
}

// probeShard runs one shard probe, collecting the visited entries.
func probeShard(sh archive.Shard, p archive.Probe) ([]*archive.Entry, archive.ProbeResult) {
	var out []*archive.Entry
	res := sh.Probe(p, func(e *archive.Entry) bool {
		out = append(out, e)
		return true
	})
	return out, res
}

// newProbe builds the filter-phase probe for one target: MBR overlap
// under a position-sensitive metric (non-overlapping clusters have
// Dist_location = 1 ≥ any threshold < 1, so the overlap probe is exact
// for the location term), the threshold-derived feature box otherwise,
// gated by the exact cluster-level feature distance.
func newProbe(feat [4]float64, mbr geom.MBR, w Weights, threshold float64) archive.Probe {
	lo, hi := FeatureRanges(feat, w, threshold)
	return archive.Probe{
		Location: w.PositionSensitive,
		MBR:      mbr,
		Lo:       lo,
		Hi:       hi,
		Gate: func(v [4]float64) bool {
			return FeatureDistance(feat, v, w) <= threshold
		},
	}
}

// RefineDistance is the grid-cell-level distance the refine phase
// assigns a (target, candidate) pair: the fixed zero alignment under a
// position-sensitive metric, the anytime alignment search otherwise.
func RefineDistance(target, cand *sgs.Summary, w Weights, budget int) float64 {
	if w.PositionSensitive {
		return CellDistance(target, cand, zeroAlign(target.Dim))
	}
	d, _ := BestAlignment(target, cand, budget)
	return d
}

// Run executes the query against snap and returns matches sorted by
// ascending distance. Both the filter phase (one gated probe per shard
// of the snapshot) and the refine phase (one grid-cell-level match per
// candidate) fan out across Query.Workers goroutines; results are
// byte-identical at every worker count and every shard layout.
func Run(snap *archive.Snapshot, q Query) ([]Match, Stats, error) {
	var st Stats
	if q.Target == nil || q.Target.NumCells() == 0 {
		return nil, st, fmt.Errorf("match: empty target")
	}
	if q.Threshold < 0 || q.Threshold > 1 {
		return nil, st, fmt.Errorf("match: threshold %g out of [0,1]", q.Threshold)
	}
	w := EqualWeights()
	if q.Weights != nil {
		w = *q.Weights
	}
	if err := w.Validate(); err != nil {
		return nil, st, err
	}
	budget := q.AlignBudget
	if budget <= 0 {
		budget = DefaultAlignBudget
	}

	// --- Phase 1: filter — parallel gated probes across shards ------------
	// Shards are disjoint and independently probeable (the memory tier
	// plus one per disk segment); each task probes one shard into its own
	// slot, applying the exact cluster-level feature distance as a gate
	// during the probe (fused filter: on columnar disk shards the range
	// test and the gate run off one sequential scan, and only survivors
	// materialize an Entry). Survivors are then merged in id order so
	// every later phase is independent of the shard layout and probe
	// timing; the reported candidate counts are gate-independent.
	probe := newProbe(q.Target.Features().Vector(), q.Target.MBR(), w, q.Threshold)
	metricQueries.Inc()
	tr := q.Trace
	filterSpan := tr.Start("filter")
	filterStart := time.Now()
	shards := snap.Shards()
	st.FilterShards = len(shards)
	perShard := make([][]*archive.Entry, len(shards))
	results := make([]archive.ProbeResult, len(shards))
	par.ForEach(q.Workers, len(shards), func(i int) {
		sp := filterSpan.Child("shard")
		perShard[i], results[i] = probeShard(shards[i], probe)
		res := results[i]
		sp.SetStr("segment", shards[i].Label)
		if shards[i].Format > 0 {
			sp.SetInt("format", int64(shards[i].Format))
		}
		if res.Zoned {
			sp.SetBool("zone_skip", res.ZoneSkipped)
		}
		sp.SetInt("candidates", int64(res.Candidates))
		sp.SetInt("kept", int64(res.Kept))
		sp.End()
	})
	var refine []*archive.Entry
	segProbed, segSkipped := 0, 0
	for i, part := range perShard {
		refine = append(refine, part...)
		res := results[i]
		st.IndexCandidates += res.Candidates
		if res.ZoneSkipped {
			segSkipped++
		} else if res.Zoned {
			segProbed++
		}
	}
	sort.Slice(refine, func(i, j int) bool { return refine[i].ID < refine[j].ID })
	st.Refined = len(refine)
	filterDur := time.Since(filterStart)
	metricFilterSeconds.Observe(filterDur)
	metricCandidates.Add(uint64(st.IndexCandidates))
	metricRefined.Add(uint64(st.Refined))
	filterSpan.SetInt("segments_probed", int64(segProbed))
	filterSpan.SetInt("segments_skipped", int64(segSkipped))
	filterSpan.SetInt("shards", int64(st.FilterShards))
	filterSpan.SetInt("candidates", int64(st.IndexCandidates))
	filterSpan.End()

	// --- Phase 2: refine — parallel grid-cell-level cluster match ---------
	// Candidates are independent: each worker reads the shared immutable
	// summaries (loading disk-resident ones lazily) and writes only its
	// own slots.
	refineSpan := tr.Start("refine")
	refineStart := time.Now()
	dists := make([]float64, len(refine))
	sums := make([]*sgs.Summary, len(refine))
	errs := make([]error, len(refine))
	hits := make([]bool, len(refine))
	par.ForEach(q.Workers, len(refine), func(i int) {
		sum, hit, err := refine[i].LoadSummaryTracked()
		if err != nil {
			errs[i] = err
			return
		}
		sums[i] = sum
		hits[i] = hit
		dists[i] = RefineDistance(q.Target, sum, w, budget)
	})
	for _, err := range errs {
		if err != nil {
			return nil, st, err
		}
	}
	refineDur := time.Since(refineStart)
	metricRefineSeconds.Observe(refineDur)
	if tr != nil {
		cacheHits, diskLoads := 0, 0
		for i, e := range refine {
			if e.Summary != nil {
				continue // memory tier: no load happened
			}
			if hits[i] {
				cacheHits++
			} else {
				diskLoads++
			}
		}
		refineSpan.SetInt("refined", int64(st.Refined))
		refineSpan.SetInt("cache_hits", int64(cacheHits))
		refineSpan.SetInt("disk_loads", int64(diskLoads))
	}
	refineSpan.End()

	// --- Phase 3: order — threshold, sort, top-k --------------------------
	orderSpan := tr.Start("order")
	orderStart := time.Now()
	var matches []Match
	for i, e := range refine {
		if dists[i] <= q.Threshold {
			// Results carry materialized summaries even for disk-resident
			// candidates (the refine phase read them anyway).
			matches = append(matches, Match{ID: e.ID, Distance: dists[i], Entry: e.WithSummary(sums[i])})
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Distance != matches[j].Distance {
			return matches[i].Distance < matches[j].Distance
		}
		return matches[i].ID < matches[j].ID
	})
	if q.Limit > 0 && len(matches) > q.Limit {
		matches = matches[:q.Limit]
	}
	orderDur := time.Since(orderStart)
	metricOrderSeconds.Observe(orderDur)
	orderSpan.SetInt("matches", int64(len(matches)))
	orderSpan.End()
	return matches, st, nil
}

// FeatureDistance is the cluster-level metric Σ wi·di with
// di = |x−f|/min(x,f) clamped to [0,1] (the location term is handled by
// the caller's index probe).
func FeatureDistance(a, b [4]float64, w Weights) float64 {
	ws := [4]float64{w.Volume, w.Status, w.Density, w.Connectivity}
	var sum float64
	for d := 0; d < 4; d++ {
		sum += ws[d] * relDist(a[d], b[d])
	}
	return sum
}

// relDist is the paper's relative feature distance: |x−f| / min(x,f),
// clamped to [0,1]. Zero features match only themselves.
func relDist(x, f float64) float64 {
	if x == f {
		return 0
	}
	m := math.Min(x, f)
	if m <= 0 {
		return 1
	}
	d := math.Abs(x-f) / m
	if d > 1 {
		return 1
	}
	return d
}

// FeatureRanges inverts the metric: the candidate search range per feature
// dimension such that any cluster outside it necessarily exceeds the
// threshold (the §7.2 example: volume 20, weight 0.4, threshold 0.2 →
// range [14, 30]). A zero-weight dimension is unbounded.
func FeatureRanges(f [4]float64, w Weights, threshold float64) (lo, hi [4]float64) {
	ws := [4]float64{w.Volume, w.Status, w.Density, w.Connectivity}
	for d := 0; d < 4; d++ {
		if ws[d] == 0 {
			lo[d], hi[d] = 0, math.Inf(1)
			continue
		}
		bound := threshold / ws[d]
		if bound >= 1 {
			// A full-range mismatch on this feature alone cannot be
			// excluded; the dimension is effectively unbounded.
			lo[d], hi[d] = 0, math.Inf(1)
			continue
		}
		lo[d] = f[d] / (1 + bound)
		hi[d] = f[d] * (1 + bound)
	}
	return lo, hi
}
