package archive

import (
	"path/filepath"
	"sync"

	"streamsum/internal/featidx"
	"streamsum/internal/geom"
	"streamsum/internal/rtree"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
	"streamsum/internal/sumcache"
)

// Snapshot is an immutable point-in-time view of the pattern base: the
// frozen generation's indices (shared, never mutated after publication),
// a private copy of the delta, the tombstone set as of the snapshot, and
// — for store-backed bases — a pinned view of the disk tier's segment
// set. Any number of goroutines may search one snapshot concurrently,
// and no snapshot operation ever takes the base lock — matching queries
// run entirely off the archiver's append path.
//
// A snapshot does not see mutations made after it was taken; pin one
// snapshot per query when the filter phases must agree on a single
// archive state, or go through the Base convenience wrappers when
// per-call freshness is enough.
type Snapshot struct {
	gen      *generation
	demoting []*Entry // in-flight demotions not yet visible in view, oldest first
	delta    []*Entry
	dead     map[int64]struct{}
	view     *segstore.View  // disk tier; nil for memory-only bases
	cache    *sumcache.Cache // decoded-summary residency layer; nil when disabled
	count    int             // live entries across both tiers
	bytes    int             // live encoded bytes across both tiers

	// unindexed maps the delta + demoting entries by id, built lazily on
	// the first Get so per-id lookups (the standing-query wiring resolves
	// every newly archived id per window) cost O(1) instead of a delta
	// scan. Searches keep scanning: they need range predicates anyway.
	idxOnce   sync.Once
	unindexed map[int64]*Entry
}

// memByID resolves an id in the snapshot's unindexed memory portion
// (delta + in-flight demotions).
func (s *Snapshot) memByID(id int64) (*Entry, bool) {
	s.idxOnce.Do(func() {
		m := make(map[int64]*Entry, len(s.delta)+len(s.demoting))
		for _, e := range s.delta {
			m[e.ID] = e
		}
		for _, e := range s.demoting {
			m[e.ID] = e
		}
		s.unindexed = m
	})
	e, ok := s.unindexed[id]
	return e, ok
}

// Snapshot returns a read-only view of the base's current contents. The
// view is cached: repeated calls between mutations return the same
// Snapshot, and taking one after a mutation costs O(delta + tombstones)
// — the frozen generation and the disk segments are shared, not copied.
func (b *Base) Snapshot() *Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.snap != nil {
		return b.snap
	}
	s := &Snapshot{gen: b.frozen, cache: b.cache, count: b.count, bytes: b.bytes}
	if len(b.delta) > 0 {
		s.delta = append(make([]*Entry, 0, len(b.delta)), b.delta...)
	}
	if len(b.dead) > 0 {
		s.dead = make(map[int64]struct{}, len(b.dead))
		for id := range b.dead {
			s.dead[id] = struct{}{}
		}
	}
	if b.store != nil {
		s.view = b.store.View()
	}
	// Entries in flight to the disk tier stay visible exactly once: via
	// the pinned store view when their segment committed before the view
	// was taken, via the snapshot's demoting list otherwise (the demoter
	// commits outside b.mu, so a batch can be committed but not yet
	// dequeued — both the view and the queue are captured here, under
	// b.mu, making the membership test race-free).
	for _, batch := range b.demotePending {
		for _, e := range batch.entries {
			if s.view != nil {
				if _, _, ok := s.view.Get(e.ID); ok {
					continue
				}
			}
			s.demoting = append(s.demoting, e)
		}
	}
	b.snap = s
	return s
}

// Len returns the number of archived clusters in the snapshot (both
// tiers).
func (s *Snapshot) Len() int { return s.count }

// Bytes returns the total encoded size of the snapshot's summaries
// (both tiers).
func (s *Snapshot) Bytes() int { return s.bytes }

func (s *Snapshot) isDead(id int64) bool {
	_, gone := s.dead[id]
	return gone
}

// segEntry wraps one disk-resident record as an Entry: the filter-phase
// features come from the segment footer; the summary loads lazily
// through the decoded-summary cache (keyed by the segment — immutable,
// so its decodes never go stale — and the record id). A nil cache means
// every load decodes from the segment. This closure is the single
// residency choke point: match refine, batch novelty probes, standing-
// query evaluation, Snapshot.Get and base dumps all load through it.
func segEntry(cache *sumcache.Cache, seg *segstore.Segment, r segstore.Record) *Entry {
	return &Entry{
		ID:       r.ID,
		MBR:      r.MBR,
		Features: sgs.FeaturesFromVector(r.Feat),
		Bytes:    int(r.Len),
		load: func() (*sgs.Summary, bool, error) {
			return cache.GetOrLoadHit(seg, r.ID, int(r.Len), func() (*sgs.Summary, error) {
				return seg.Load(r)
			})
		},
	}
}

// Get returns the entry with the given id, or nil. Disk-resident entries
// are returned with the summary materialized (one segment read); if that
// read fails, Get reports the entry absent — run a matching query when
// the I/O error itself matters, its refine phase surfaces it.
func (s *Snapshot) Get(id int64) *Entry {
	if !s.isDead(id) {
		if e, ok := s.gen.entries[id]; ok {
			return e
		}
	}
	// Delta and in-flight demotions (frozen-origin demoting ids are in
	// the dead set, so the gen lookup above skipped them; neither delta
	// nor demoting entries are ever in the dead set themselves).
	if e, ok := s.memByID(id); ok {
		return e
	}
	// The memory tier marks demoted ids dead, so a dead id may still be
	// live on disk.
	if s.view != nil {
		if seg, r, ok := s.view.Get(id); ok {
			e := segEntry(s.cache, seg, r)
			sum, err := e.LoadSummary()
			if err != nil {
				return nil
			}
			return e.WithSummary(sum)
		}
	}
	return nil
}

// Probe is one filter-phase request against a Shard: a range test —
// MBR overlap with MBR when Location is set (the position-sensitive
// probe), the inclusive feature box [Lo, Hi] otherwise — followed by the
// exact cluster-level Gate over each candidate's feature vector (nil
// admits every candidate).
type Probe struct {
	Location bool
	MBR      geom.MBR
	Lo, Hi   [4]float64
	Gate     func([4]float64) bool
}

// inRange reports whether an entry with the given MBR and feature vector
// passes the probe's range test.
func (p *Probe) inRange(mbr geom.MBR, v [4]float64) bool {
	if p.Location {
		return mbr.Intersects(p.MBR)
	}
	for d := 0; d < 4; d++ {
		if v[d] < p.Lo[d] || v[d] > p.Hi[d] {
			return false
		}
	}
	return true
}

// ProbeResult reports what one Shard.Probe did.
type ProbeResult struct {
	// Candidates counts live entries that passed the range test,
	// regardless of the gate (the index-candidate count).
	Candidates int
	// Kept counts candidates that passed the gate and were visited.
	Kept int
	// Zoned is set for shards with a filter zone (disk segments).
	Zoned bool
	// ZoneSkipped is set when the zone excluded the probe's range, so
	// the shard was answered without scanning it.
	ZoneSkipped bool
}

// Shard is one independently probeable part of a snapshot: the memory
// tier, or one disk segment masked by the store tombstones pinned in the
// snapshot's view. Shards of one snapshot are disjoint (an id appears in
// exactly one) and each is safe for concurrent probing.
type Shard struct {
	// Label identifies the shard in per-query traces: "mem" for the
	// memory tier, the segment file's basename otherwise.
	Label string
	// Format is the segment's on-disk format version (0 for the memory
	// tier).
	Format int

	snap *Snapshot
	seg  *segstore.Segment // nil for the memory tier
}

// Shards splits the snapshot into its filter shards: the memory tier
// first, then one shard per disk segment in archive order. A matcher may
// fan its filter phase out across them — internal/match does exactly
// that.
func (s *Snapshot) Shards() []Shard {
	var segs []*segstore.Segment
	if s.view != nil {
		segs = s.view.Segments()
	}
	shards := make([]Shard, 0, 1+len(segs))
	shards = append(shards, Shard{Label: "mem", snap: s})
	for _, seg := range segs {
		shards = append(shards, Shard{Label: filepath.Base(seg.Path()), Format: seg.Format(), snap: s, seg: seg})
	}
	return shards
}

// Probe visits the shard's live entries that pass p's range test and
// gate. Tombstoned entries are masked, a disk segment whose zone cannot
// meet the range is skipped whole, and gate rejections never materialize
// an Entry (on v3 segments the range test and the gate run off one
// columnar scan). Iteration stops early if visit returns false; the
// counts are then partial. visit runs against the immutable snapshot,
// never under the base lock, so it may call Put or Remove.
func (sh Shard) Probe(p Probe, visit func(*Entry) bool) ProbeResult {
	var res ProbeResult
	if sh.seg != nil {
		res.Zoned = true
		view, cache := sh.snap.view, sh.snap.cache
		scan := func(r segstore.Record) bool {
			if view.Dead(r.ID) {
				return true
			}
			res.Candidates++
			if p.Gate != nil && !p.Gate(r.Feat) {
				return true
			}
			res.Kept++
			return visit(segEntry(cache, sh.seg, r))
		}
		if p.Location {
			_, res.ZoneSkipped = sh.seg.GatedSearchLocation(p.MBR, nil, scan)
		} else {
			_, res.ZoneSkipped = sh.seg.GatedSearchFeatures(p.Lo, p.Hi, nil, scan)
		}
		return res
	}

	s := sh.snap
	stopped := false
	offer := func(e *Entry) bool {
		res.Candidates++
		if p.Gate != nil && !p.Gate(e.Features.Vector()) {
			return true
		}
		res.Kept++
		stopped = !visit(e)
		return !stopped
	}
	if p.Location {
		s.gen.loc.SearchIntersect(p.MBR, func(it rtree.Item) bool {
			return s.isDead(it.ID) || offer(s.gen.entries[it.ID])
		})
	} else {
		s.gen.feat.Search(p.Lo, p.Hi, func(fe featidx.Entry) bool {
			return s.isDead(fe.ID) || offer(s.gen.entries[fe.ID])
		})
	}
	for _, list := range [2][]*Entry{s.demoting, s.delta} {
		for _, e := range list {
			if stopped {
				return res
			}
			if p.inRange(e.MBR, e.Features.Vector()) {
				offer(e)
			}
		}
	}
	return res
}

// All visits every entry in FIFO order: the disk segments (all disk
// entries predate all memory entries — demotion always takes the oldest),
// then in-flight demotions (the oldest memory entries), then the frozen
// generation's order minus tombstones, then the delta. Disk-resident
// entries are visited summary-free; call LoadSummary on them when the
// cells are needed. Iteration stops early if visit returns false.
func (s *Snapshot) All(visit func(*Entry) bool) {
	if s.view != nil {
		for _, seg := range s.view.Segments() {
			for _, r := range seg.Records() {
				if s.view.Dead(r.ID) {
					continue
				}
				if !visit(segEntry(s.cache, seg, r)) {
					return
				}
			}
		}
	}
	for _, e := range s.demoting {
		if !visit(e) {
			return
		}
	}
	for _, id := range s.gen.order {
		if s.isDead(id) {
			continue
		}
		if !visit(s.gen.entries[id]) {
			return
		}
	}
	for _, e := range s.delta {
		if !visit(e) {
			return
		}
	}
}
