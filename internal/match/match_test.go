package match

import (
	"math"
	"math/rand"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
)

const thetaR = 0.5

func geoOf(t *testing.T) *grid.Geometry {
	t.Helper()
	g, err := grid.NewGeometry(2, thetaR)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// summarize builds the SGS of the largest cluster in a point cloud.
func summarize(t *testing.T, pts []geom.Point, id int64) *sgs.Summary {
	t.Helper()
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	res, err := dbscan.Run(pts, ids, dbscan.Params{ThetaR: thetaR, ThetaC: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("fixture produced no cluster")
	}
	best := 0
	for i, c := range res.Clusters {
		if len(c.Members) > len(res.Clusters[best].Members) {
			best = i
		}
	}
	var cpts []geom.Point
	var isCore []bool
	for _, m := range res.Clusters[best].Members {
		cpts = append(cpts, pts[m])
		isCore = append(isCore, res.IsCore[m])
	}
	s, err := sgs.FromCluster(geoOf(t), cpts, isCore, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func blob(rng *rand.Rand, n int, cx, cy, spread float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
	}
	return pts
}

func elongated(rng *rand.Rand, n int, cx, cy float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{cx + rng.Float64()*8, cy + rng.NormFloat64()*0.3}
	}
	return pts
}

func TestWeightsValidate(t *testing.T) {
	if err := EqualWeights().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Weights{Volume: 0.5, Status: 0.6}
	if bad.Validate() == nil {
		t.Error("non-unit weights accepted")
	}
	neg := Weights{Volume: -0.5, Status: 1.5}
	if neg.Validate() == nil {
		t.Error("negative weight accepted")
	}
}

func TestRelDist(t *testing.T) {
	cases := []struct {
		x, f, want float64
	}{
		{20, 20, 0},
		{14, 20, (20.0 - 14) / 14},
		{30, 20, 0.5},
		{0, 0, 0},
		{0, 5, 1},
		{100, 1, 1}, // clamped
	}
	for _, c := range cases {
		if got := relDist(c.x, c.f); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("relDist(%g,%g) = %g, want %g", c.x, c.f, got, c.want)
		}
	}
}

func TestFeatureRangesPaperExample(t *testing.T) {
	// §7.2: volume 20, weight 0.4, threshold 0.2 → candidates must have
	// volume in [14, 30] (bound = 0.5).
	w := Weights{Volume: 0.4, Status: 0.2, Density: 0.2, Connectivity: 0.2}
	lo, hi := FeatureRanges([4]float64{20, 10, 1, 1}, w, 0.2)
	if math.Abs(lo[0]-20.0/1.5) > 1e-9 || math.Abs(hi[0]-30) > 1e-9 {
		t.Errorf("volume range = [%g, %g], want [13.33, 30]", lo[0], hi[0])
	}
	// ceil(13.33) = 14 integers, matching the paper's statement.
	if math.Ceil(lo[0]) != 14 {
		t.Errorf("integer lower bound %g, want 14", math.Ceil(lo[0]))
	}
	// Zero-weight dimension is unbounded.
	w2 := Weights{Volume: 1}
	lo2, hi2 := FeatureRanges([4]float64{20, 10, 1, 1}, w2, 0.2)
	if !math.IsInf(hi2[1], 1) || lo2[1] != 0 {
		t.Error("zero-weight dimension should be unbounded")
	}
	// bound >= 1 → unbounded.
	lo3, hi3 := FeatureRanges([4]float64{20, 10, 1, 1}, EqualWeights(), 0.3)
	if !math.IsInf(hi3[0], 1) || lo3[0] != 0 {
		t.Error("bound >= 1 should be unbounded")
	}
}

func TestCellDistanceIdentityAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := summarize(t, blob(rng, 200, 0, 0, 0.8), 0)
	if d := CellDistance(s, s, zeroAlign(2)); d != 0 {
		t.Errorf("self distance = %g", d)
	}
	s2 := summarize(t, blob(rng, 200, 30, 30, 0.8), 1)
	d := CellDistance(s, s2, zeroAlign(2))
	if d != 1 {
		t.Errorf("disjoint unaligned distance = %g, want 1", d)
	}
	var empty sgs.Summary
	if CellDistance(&empty, &empty, zeroAlign(2)) != 0 {
		t.Error("empty-empty should be 0")
	}
	if CellDistance(s, &empty, zeroAlign(2)) != 1 {
		t.Error("empty-nonempty should be 1")
	}
}

func TestBestAlignmentFindsShiftedTwin(t *testing.T) {
	// The same cluster translated far away: position-insensitive matching
	// must find a near-zero distance via alignment.
	rng := rand.New(rand.NewSource(2))
	base := blob(rng, 300, 0, 0, 0.9)
	shift := geom.Point{37.25, -12.5}
	moved := make([]geom.Point, len(base))
	for i, p := range base {
		moved[i] = p.Add(shift)
	}
	a := summarize(t, base, 0)
	b := summarize(t, moved, 1)
	d, _ := BestAlignment(a, b, 128)
	// Cell quantization means the shifted copy lands in different relative
	// cell positions, so the distance is small but not zero.
	if d > 0.55 {
		t.Errorf("aligned distance = %g, want small", d)
	}
	// Identity alignment would be hopeless.
	if id := CellDistance(a, b, zeroAlign(2)); id != 1 {
		t.Errorf("identity alignment distance = %g, want 1", id)
	}
	// A perfectly cell-aligned translation must give ~0.
	aligned := make([]geom.Point, len(base))
	side := geoOf(t).Side()
	for i, p := range base {
		aligned[i] = p.Add(geom.Point{10 * side, 4 * side})
	}
	c := summarize(t, aligned, 2)
	d2, _ := BestAlignment(a, c, 128)
	if d2 > 1e-9 {
		t.Errorf("cell-aligned twin distance = %g, want 0", d2)
	}
}

func TestBestAlignmentBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := summarize(t, blob(rng, 200, 0, 0, 0.8), 0)
	b := summarize(t, blob(rng, 200, 5, 5, 0.8), 1)
	dBig, _ := BestAlignment(a, b, 512)
	dSmall, _ := BestAlignment(a, b, 1)
	if dBig > dSmall+1e-12 {
		t.Errorf("larger budget found worse alignment: %g vs %g", dBig, dSmall)
	}
}

// buildBase archives n random clusters and returns the base plus the
// summaries.
func buildBase(t *testing.T, n int, seed int64) (*archive.Base, []*sgs.Summary) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := archive.New(archive.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sums []*sgs.Summary
	for i := 0; i < n; i++ {
		var pts []geom.Point
		if i%3 == 0 {
			pts = elongated(rng, 250, rng.Float64()*100, rng.Float64()*100)
		} else {
			pts = blob(rng, 150+rng.Intn(150), rng.Float64()*100, rng.Float64()*100, 0.5+rng.Float64())
		}
		s := summarize(t, pts, int64(i))
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	return b, sums
}

func TestRunFindsArchivedSelf(t *testing.T) {
	b, sums := buildBase(t, 25, 4)
	for i := 0; i < 5; i++ {
		matches, st, err := Run(b.Snapshot(), Query{Target: sums[i], Threshold: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 {
			t.Fatalf("target %d: no matches for its own archived copy", i)
		}
		if matches[0].Distance > 1e-9 {
			t.Fatalf("target %d: self distance %g", i, matches[0].Distance)
		}
		if st.IndexCandidates == 0 || st.Refined == 0 {
			t.Fatalf("stats empty: %+v", st)
		}
		if st.Refined > st.IndexCandidates {
			t.Fatalf("refined %d > candidates %d", st.Refined, st.IndexCandidates)
		}
	}
}

func TestRunPositionSensitive(t *testing.T) {
	b, sums := buildBase(t, 20, 5)
	w := EqualWeights()
	w.PositionSensitive = true
	matches, _, err := Run(b.Snapshot(), Query{Target: sums[0], Threshold: 0.3, Weights: &w})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		// Every match must overlap the target (Dist_location = 0).
		if !m.Entry.MBR.Intersects(sums[0].MBR()) {
			t.Fatal("position-sensitive match does not overlap target")
		}
		if m.Distance <= 1e-9 {
			found = true
		}
	}
	if !found {
		t.Fatal("archived self not found position-sensitively")
	}
}

func TestRunLimitAndOrdering(t *testing.T) {
	b, sums := buildBase(t, 30, 6)
	matches, _, err := Run(b.Snapshot(), Query{Target: sums[0], Threshold: 1, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) > 3 {
		t.Fatalf("limit ignored: %d matches", len(matches))
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].Distance < matches[i-1].Distance {
			t.Fatal("matches not sorted")
		}
	}
}

func TestRunValidation(t *testing.T) {
	b, sums := buildBase(t, 3, 7)
	if _, _, err := Run(b.Snapshot(), Query{Target: nil, Threshold: 0.2}); err == nil {
		t.Error("nil target accepted")
	}
	if _, _, err := Run(b.Snapshot(), Query{Target: sums[0], Threshold: 2}); err == nil {
		t.Error("threshold > 1 accepted")
	}
	badW := Weights{Volume: 2}
	if _, _, err := Run(b.Snapshot(), Query{Target: sums[0], Threshold: 0.2, Weights: &badW}); err == nil {
		t.Error("bad weights accepted")
	}
}

func TestFilterNoFalseNegatives(t *testing.T) {
	// Any archived cluster whose cluster-level feature distance is within
	// the threshold must be among the index candidates (the filter phase
	// uses necessary conditions only).
	b, sums := buildBase(t, 40, 8)
	w := EqualWeights()
	for _, q := range sums[:8] {
		qf := q.Features().Vector()
		lo, hi := FeatureRanges(qf, w, 0.15)
		inIndex := make(map[int64]bool)
		for _, sh := range b.Snapshot().Shards() {
			sh.Probe(archive.Probe{Lo: lo, Hi: hi}, func(e *archive.Entry) bool {
				inIndex[e.ID] = true
				return true
			})
		}
		b.All(func(e *archive.Entry) bool {
			fd := FeatureDistance(qf, e.Features.Vector(), w)
			if fd <= 0.15 && !inIndex[e.ID] {
				t.Fatalf("cluster %d (feature dist %g) missed by filter", e.ID, fd)
			}
			return true
		})
	}
}

func TestMatchingSeparatesShapes(t *testing.T) {
	// A blob target should match archived blobs better than elongated
	// clusters of similar size — the shape discrimination CRD cannot do.
	rng := rand.New(rand.NewSource(9))
	b, err := archive.New(archive.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	blobID, _, err := b.Put(summarize(t, blob(rng, 250, 10, 10, 0.8), 0))
	if err != nil {
		t.Fatal(err)
	}
	elongID, _, err := b.Put(summarize(t, elongated(rng, 250, 60, 60), 1))
	if err != nil {
		t.Fatal(err)
	}
	target := summarize(t, blob(rng, 250, 90, 90, 0.8), 2)
	matches, _, err := Run(b.Snapshot(), Query{Target: target, Threshold: 1, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	dist := map[int64]float64{}
	for _, m := range matches {
		dist[m.ID] = m.Distance
	}
	db, okB := dist[blobID]
	de, okE := dist[elongID]
	if okB && okE && db >= de {
		t.Errorf("blob target closer to elongated (%g) than to blob (%g)", de, db)
	}
	if !okB {
		t.Error("similar blob not matched at threshold 1")
	}
}
