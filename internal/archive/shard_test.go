package archive

import (
	"math"
	"testing"

	"streamsum/internal/geom"
)

// probeAll probes every shard of s in turn with p, stopping once visit
// returns false.
func probeAll(s *Snapshot, p Probe, visit func(*Entry) bool) {
	for _, sh := range s.Shards() {
		stopped := false
		sh.Probe(p, func(e *Entry) bool {
			stopped = !visit(e)
			return !stopped
		})
		if stopped {
			return
		}
	}
}

// searchLocation visits the snapshot's entries whose MBR intersects q.
func searchLocation(s *Snapshot, q geom.MBR, visit func(*Entry) bool) {
	probeAll(s, Probe{Location: true, MBR: q}, visit)
}

// searchFeatures visits the snapshot's entries whose feature vector lies
// inside [lo, hi].
func searchFeatures(s *Snapshot, lo, hi [4]float64, visit func(*Entry) bool) {
	probeAll(s, Probe{Lo: lo, Hi: hi}, visit)
}

// TestProbeRejectZeroAlloc pins the fused-gate claim above segstore: a
// probe whose gate rejects every candidate allocates nothing, on the
// memory shard (frozen generation and delta both populated) and on a v3
// disk shard, for both range tests.
func TestProbeRejectZeroAlloc(t *testing.T) {
	mem, err := New(Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fixtureSummaries(t, 140, 17) {
		if _, ok, err := mem.Put(s); err != nil || !ok {
			t.Fatalf("put: ok=%v err=%v", ok, err)
		}
	}
	memSnap := mem.Snapshot()
	if len(memSnap.gen.order) == 0 || len(memSnap.delta) == 0 {
		t.Fatalf("want frozen and delta entries, got %d and %d", len(memSnap.gen.order), len(memSnap.delta))
	}
	_, tiered, cleanup := tieredPair(t, 40, 8<<10)
	defer cleanup()
	tierShards := tiered.Snapshot().Shards()
	if len(tierShards) < 2 || tierShards[1].Format != 3 {
		t.Fatalf("want a v3 disk shard, got %+v", tierShards)
	}

	inf := math.Inf(1)
	everywhere := geom.MBR{Min: geom.Point{-inf, -inf}, Max: geom.Point{inf, inf}}
	probes := map[string]Probe{
		"features": {Hi: [4]float64{inf, inf, inf, inf}},
		"location": {Location: true, MBR: everywhere},
	}
	visit := func(e *Entry) bool {
		t.Fatalf("gate-rejected entry %d visited", e.ID)
		return false
	}
	for name, sh := range map[string]Shard{"mem": memSnap.Shards()[0], "v3": tierShards[1]} {
		for kind, p := range probes {
			p.Gate = func([4]float64) bool { return false }
			var res ProbeResult
			if n := testing.AllocsPerRun(100, func() { res = sh.Probe(p, visit) }); n != 0 {
				t.Errorf("%s shard, %s probe: %.1f allocs/op", name, kind, n)
			}
			if res.Candidates == 0 || res.Kept != 0 || res.ZoneSkipped {
				t.Errorf("%s shard, %s probe: %+v", name, kind, res)
			}
		}
	}
}
