package experiments

import (
	"math"
	"math/rand"
	"sort"

	"streamsum/internal/crd"
	"streamsum/internal/gen"
	"streamsum/internal/match"
	"streamsum/internal/quality"
	"streamsum/internal/rsp"
	"streamsum/internal/skps"
)

// Figure 9 (§8.3): quality of cluster matching. For each to-be-matched
// cluster, every summarization format returns its top-3 matches; each
// returned match is rated very-similar / similar / not-similar. The
// paper's 20 human analysts are replaced by the full-representation
// coverage oracle of internal/quality (see that package and DESIGN.md for
// why the substitution preserves the comparison's discriminating power).
//
// Targets mix perturbed copies of archived clusters (a good match exists;
// a faithful method should find it) with fresh clusters (no especially
// good match exists; returning confidently "similar" junk is penalized).

// Fig9Config parameterizes the quality study.
type Fig9Config struct {
	// ArchiveSize is the number of archived clusters (paper: matching
	// against the archive built in §8.2; default 300).
	ArchiveSize int
	// Targets is the number of to-be-matched clusters (default 24).
	Targets int
	// PerturbedFrac is the fraction of targets derived from archived
	// clusters (default 0.7).
	PerturbedFrac float64
	// TopK is how many matches each method returns per target (paper: 3).
	TopK int
	// Dim is the workload dimensionality (default 2; the paper's STT
	// matching workload is 4-D, where fixed byte budgets buy the sampling
	// and graph methods less fidelity).
	Dim  int
	Seed int64
}

// Fig9Result is one method's tally, overall and broken down by the
// target's shape family (which structures each summarization handles
// well — CRD typically collapses on rings and two-lobe clusters, whose
// statistical profile matches a plain blob).
type Fig9Result struct {
	Method  string
	Tally   quality.Tally
	ByShape map[string]*quality.Tally
}

// RunFig9 executes the quality study.
func RunFig9(cfg Fig9Config) ([]Fig9Result, error) {
	if cfg.ArchiveSize <= 0 {
		cfg.ArchiveSize = 300
	}
	if cfg.Targets <= 0 {
		cfg.Targets = 24
	}
	if cfg.PerturbedFrac <= 0 || cfg.PerturbedFrac > 1 {
		cfg.PerturbedFrac = 0.7
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 3
	}
	if cfg.Dim < 2 {
		cfg.Dim = 2
	}
	params := MatchParamsForDim(cfg.Dim)
	st, err := BuildMatchStoresDim(cfg.ArchiveSize, cfg.Seed, cfg.Dim)
	if err != nil {
		return nil, err
	}
	// The oracle rates using full representations, which no summarization
	// method sees. Its occupancy granularity matches the clustering
	// geometry in 2-D (cell side = θr/√2); in higher dimensions the raster
	// is kept at side = θr — with a few hundred members, finer 4-D cells
	// hold ≈1 point each and even an independent re-sample of the same
	// cluster would rate dissimilar, destroying the rating's meaning.
	cellSide := params.ThetaR / math.Sqrt2
	if cfg.Dim >= 3 {
		cellSide = params.ThetaR
	}
	oracle, err := quality.NewOracle(cfg.Dim, cellSide, quality.DefaultThresholds())
	if err != nil {
		return nil, err
	}
	for id, member := range st.Members {
		oracle.AddCluster(int64(id), member)
	}

	// Build targets.
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	archived := gen.Clusters(gen.ClustersConfig{Seed: cfg.Seed, Dim: cfg.Dim}, cfg.ArchiveSize)
	fresh := gen.Clusters(gen.ClustersConfig{Seed: cfg.Seed + 999, Dim: cfg.Dim}, cfg.Targets)

	tallies := map[string]*quality.Tally{}
	byShape := map[string]map[string]*quality.Tally{}
	for _, m := range MatchMethods {
		tallies[m] = &quality.Tally{}
		byShape[m] = map[string]*quality.Tally{}
	}
	shapeTally := func(method, shape string) *quality.Tally {
		t := byShape[method][shape]
		if t == nil {
			t = &quality.Tally{}
			byShape[method][shape] = t
		}
		return t
	}

	for ti := 0; ti < cfg.Targets; ti++ {
		var pts = fresh[ti].Points
		shape := fresh[ti].Shape
		if rng.Float64() < cfg.PerturbedFrac {
			src := archived[rng.Intn(len(archived))]
			perturbed := gen.Perturb(src, 0.08, 30, cfg.Seed+int64(ti))
			pts, shape = perturbed.Points, perturbed.Shape
		}
		member, isCore, summary, err := summarizeCluster(pts, params.ThetaR, params.ThetaC, int64(2_000_000+ti))
		if err != nil {
			return nil, err
		}
		tCRD, err := crd.FromPoints(member, int64(ti), 0)
		if err != nil {
			return nil, err
		}
		tRSP, err := rsp.FromPoints(member, int64(ti), 0, RSPBudgetBytes, nil)
		if err != nil {
			return nil, err
		}
		tSkPS, err := skps.FromCluster(member, isCore, params.ThetaR, int64(ti), 0)
		if err != nil {
			return nil, err
		}

		// SGS: the real pipeline with threshold 1 (top-k regardless).
		ms, _, err := match.Run(st.Base.Snapshot(), match.Query{Target: summary, Threshold: 1, Limit: cfg.TopK})
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			v, err := oracle.RateMatch(member, m.ID)
			if err != nil {
				return nil, err
			}
			tallies["SGS"].Add(v)
			shapeTally("SGS", shape.String()).Add(v)
		}

		// The alternatives: full scans, top-k by their own metric.
		rate := func(method string, ids []int64) error {
			for _, id := range ids {
				v, err := oracle.RateMatch(member, id)
				if err != nil {
					return err
				}
				tallies[method].Add(v)
				shapeTally(method, shape.String()).Add(v)
			}
			return nil
		}
		if err := rate("CRD", topK(len(st.CRDs), cfg.TopK, func(i int) float64 {
			return crd.Distance(tCRD, st.CRDs[i])
		})); err != nil {
			return nil, err
		}
		if err := rate("RSP", topK(len(st.RSPs), cfg.TopK, func(i int) float64 {
			return rsp.Distance(tRSP, st.RSPs[i])
		})); err != nil {
			return nil, err
		}
		if err := rate("SkPS", topK(len(st.SkPSs), cfg.TopK, func(i int) float64 {
			return skps.Distance(tSkPS, st.SkPSs[i])
		})); err != nil {
			return nil, err
		}
	}

	out := make([]Fig9Result, 0, len(MatchMethods))
	for _, m := range MatchMethods {
		out = append(out, Fig9Result{Method: m, Tally: *tallies[m], ByShape: byShape[m]})
	}
	return out, nil
}

// topK returns the indices (as archive ids) of the k smallest distances.
func topK(n, k int, dist func(int) float64) []int64 {
	type pair struct {
		id int64
		d  float64
	}
	ps := make([]pair, n)
	for i := 0; i < n; i++ {
		ps[i] = pair{int64(i), dist(i)}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].d < ps[b].d })
	if k > n {
		k = n
	}
	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].id
	}
	return out
}
