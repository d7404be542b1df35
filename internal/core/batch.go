package core

import (
	"fmt"
	"time"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/par"
	"streamsum/internal/trace"
	"streamsum/internal/window"
)

// This file implements the batched ingest path: PushBatch feeds a whole
// slide's worth of tuples through a phased pipeline that fans the
// read-heavy work across cores while keeping every state mutation
// single-writer and the output window-for-window identical to Push.
//
// A batch is cut into segments at window boundaries (emit() runs
// sequentially between segments). Within one segment:
//
// Phase 1 (parallel, read-only): per tuple, the range query search — the
// dominant CPU cost of C-SGS per the paper's cost analysis — runs over
// the frozen window state; neighbors *within* the segment are found
// through a temporary per-segment cell map. Because a new object's career
// depends only on the immutable last-windows of its neighbors
// (Observation 5.4), the phase also builds the object's complete neighbor
// list and CoreTracker and computes its final core career, all on private
// state.
//
// Phase 2 (sequential): cell membership, reverse neighbor wiring, and the
// career growth of *existing* objects (their trackers are shared, so the
// θc-order-statistic updates replay in arrival order, exactly as the
// sequential path performs them).
//
// Phase 3 (sequential): one refresh per touched object — each new object
// plus each existing object whose career grew — using final careers.
//
// Why deferring refresh is exact: cell core-status and connection
// lifespans are pure max-accumulations over career values (Lemmas
// 5.1–5.2), and careers only ever grow. The sequential path's eager
// refreshes contribute a monotone sequence of values to each maximum
// whose last (largest) contribution uses exactly the final careers this
// phase sees; intermediate contributions are subsumed. No output stage
// can observe the difference because emit() only runs between segments,
// after phase 3.

// BatchEntry is one admitted tuple of an emission-free segment, with its
// pre-assigned id and position. It is the unit of work DriveBatch hands
// to an extractor's segment-insertion callback.
type BatchEntry struct {
	ID  int64
	P   geom.Point
	Pos int64
}

// BatchDriver is the per-extractor surface DriveBatch operates on. Both
// extractors (C-SGS here, Extra-N in internal/extran) share the exact
// same segment-cutting semantics — emission boundaries, error behavior,
// the nil-tss rule, the post-Flush drop check — so the driver loop exists
// once and the extractors supply only their state and callbacks.
type BatchDriver struct {
	Dim    int
	Window window.Spec
	// NextID, LastPos and Cur point at the extractor's id / monotonicity /
	// current-window counters; Emit (which advances *Cur) and Insert are
	// its output stage and segment-insertion pipeline.
	NextID  *int64
	LastPos *int64
	Cur     *int64
	Emit    func() *WindowResult
	Insert  func(seg []BatchEntry)
	// ErrDim and ErrOrder construct the extractor's package-specific
	// errors for a dimension mismatch / out-of-order position.
	ErrDim   func(got, want int) error
	ErrOrder func(pos, last int64) error
}

// DriveBatch feeds a batch of tuples with semantics identical to calling
// the extractor's Push for each tuple in order: the batch is cut into
// emission-free segments at window boundaries (Emit runs between
// segments), each segment goes through Insert as one unit, and errors
// abort the batch at the offending tuple with every earlier tuple fully
// applied — matching a sequential Push loop that stops at the first
// error. A nil tss under time-based windows reads as all-zero timestamps,
// like Push(p, 0).
func DriveBatch(d BatchDriver, pts []geom.Point, tss []int64) ([]*WindowResult, error) {
	MetricBatches.Inc()
	MetricTuples.Add(uint64(len(pts)))
	var out []*WindowResult
	seg := make([]BatchEntry, 0, len(pts))
	flush := func() {
		if len(seg) > 0 {
			d.Insert(seg)
			seg = seg[:0]
		}
	}
	for i, p := range pts {
		if len(p) != d.Dim {
			flush()
			return out, d.ErrDim(len(p), d.Dim)
		}
		id := *d.NextID
		*d.NextID++
		pos := id
		if d.Window.Kind == window.TimeBased {
			pos = 0 // nil tss reads as all-zero timestamps, like Push(p, 0)
			if tss != nil {
				pos = tss[i]
			}
		}
		if pos < *d.LastPos {
			flush()
			return out, d.ErrOrder(pos, *d.LastPos)
		}
		*d.LastPos = pos
		if pos >= d.Window.End(*d.Cur) {
			flush()
			for pos >= d.Window.End(*d.Cur) {
				out = append(out, d.Emit())
			}
		}
		if d.Window.LastWindow(pos) < *d.Cur {
			// Entire lifespan lies in already-emitted windows (possible only
			// after a mid-stream Flush); dropped, same as Push.
			continue
		}
		seg = append(seg, BatchEntry{ID: id, P: p, Pos: pos})
	}
	flush()
	return out, nil
}

// segCell is one occupied cell of a segment. The per-cell work — finding
// the occupied existing cells to scan and the segment tuples in
// CanNeighbor cells — is computed once (in parallel across cells) and
// shared by every tuple of the cell, keeping coordinate-keyed map probing
// out of the per-tuple loop.
type segCell struct {
	coord grid.Coord
	idxs  []int32 // segment tuple indices located in this cell (ascending)
	scan  []*cell // occupied existing cells reachable from this cell
	cands []int32 // segment tuple indices in CanNeighbor cells (incl. own)
}

// PushBatch feeds a batch of tuples with semantics identical to calling
// Push for each tuple in order, returning the results of all windows the
// batch completed. tss supplies per-tuple timestamps for time-based
// windows and may be nil for count-based ones (a nil tss under time-based
// windows reads as all-zero timestamps, like Push(p, 0)).
//
// The neighbor-discovery phase fans out across Config.Workers goroutines;
// errors (dimension mismatch, out-of-order position) abort the batch at
// the offending tuple, with every earlier tuple fully applied — again
// matching a sequential Push loop that stops at the first error.
func (e *Extractor) PushBatch(pts []geom.Point, tss []int64) ([]*WindowResult, error) {
	if tss != nil && len(tss) != len(pts) {
		return nil, fmt.Errorf("core: PushBatch got %d timestamps for %d tuples", len(tss), len(pts))
	}
	e.tr = trace.Default.Start(trace.Ingest, "ingest.batch")
	defer func() { e.tr = nil }()
	out, err := DriveBatch(BatchDriver{
		Dim: e.cfg.Dim, Window: e.cfg.Window,
		NextID: &e.nextID, LastPos: &e.lastPos, Cur: &e.cur,
		Emit: e.emit, Insert: e.insertSegment,
		ErrDim: func(got, want int) error {
			return fmt.Errorf("core: tuple dimension %d != query dimension %d", got, want)
		},
		ErrOrder: func(pos, last int64) error {
			return fmt.Errorf("core: out-of-order position %d after %d", pos, last)
		},
	}, pts, tss)
	FinishBatchTrace(e.tr, len(pts), len(out), err)
	return out, err
}

// FinishBatchTrace stamps the batch-level attributes on an ingest
// trace's root span and commits it to the flight recorder; both
// extractors' PushBatch call it (nil trace = recorder disabled).
func FinishBatchTrace(tr *trace.Trace, tuples, windows int, err error) {
	root := tr.Root()
	root.SetInt("tuples", int64(tuples))
	root.SetInt("windows", int64(windows))
	if err != nil {
		root.SetStr("error", err.Error())
	}
	tr.Finish()
}

// insertSegment inserts one emission-free run of tuples through the
// three-phase pipeline described in the file comment.
func (e *Extractor) insertSegment(seg []BatchEntry) {
	n := len(seg)
	workers := par.DefaultWorkers(e.cfg.Workers)
	if n < 2 || workers == 1 {
		// The sequential fallback has no discovery/apply split; its whole
		// insert loop is shared-state work, recorded under apply.
		sp := e.tr.Start("apply")
		start := time.Now()
		for _, t := range seg {
			e.insert(t.ID, t.P, t.Pos)
		}
		MetricApplySeconds.Observe(time.Since(start))
		sp.SetInt("tuples", int64(n))
		sp.End()
		return
	}
	e.segSeq++
	discoverySpan := e.tr.Start("discovery")
	discoveryStart := time.Now()

	// Phase 0: materialize the segment's objects (phase 1 reads them
	// cross-tuple for intra-segment careers) and group the segment by
	// occupied cell, in first-touch order. Index lists are ascending.
	objs := make([]*object, n)
	existing := make([][]*object, n)
	tupCell := make([]int32, n)
	var cells []segCell
	var coords []grid.Coord
	cellIdx := make(map[grid.Coord]int32, n)
	for k, t := range seg {
		objs[k] = &object{
			id:       t.ID,
			p:        t.P,
			last:     e.cfg.Window.LastWindow(t.Pos),
			coreLast: window.Never,
			tracker:  window.NewCoreTracker(e.cfg.ThetaC),
		}
		coord := e.geo.CoordOf(t.P)
		ci, ok := cellIdx[coord]
		if !ok {
			ci = int32(len(cells))
			cellIdx[coord] = ci
			cells = append(cells, segCell{coord: coord})
			coords = append(coords, coord)
		}
		cells[ci].idxs = append(cells[ci].idxs, int32(k))
		tupCell[k] = ci
	}

	// Phase 1a (parallel over cells): resolve each occupied segment cell's
	// existing-state scan set and intra-segment candidate set once.
	par.For(workers, len(cells), func(i int) {
		sc := &cells[i]
		e.scanCells(sc.coord, func(c *cell) {
			sc.scan = append(sc.scan, c)
		})
		for _, j := range e.geo.NeighborIndices(coords, cellIdx, i) {
			sc.cands = append(sc.cands, cells[j].idxs...)
		}
	})

	// Phase 1b (parallel over runs of tuples): the range query searches
	// over the frozen state + private career/neighbor-list construction.
	// A run's tuples share one scratch buffer, so each list is allocated
	// once, at its final length.
	r2 := e.cfg.ThetaR * e.cfg.ThetaR
	const run = 32
	par.ForEach(workers, (n+run-1)/run, func(ri int) {
		var buf []*object
		for k := ri * run; k < min(n, (ri+1)*run); k++ {
			o := objs[k]
			p := seg[k].P
			sc := &cells[tupCell[k]]
			buf = buf[:0]
			for _, c := range sc.scan {
				for _, q := range c.objs {
					if geom.DistSq(p, q.p) <= r2 {
						buf = append(buf, q)
					}
				}
			}
			ne := len(buf)
			for _, m := range sc.cands {
				if int(m) != k && geom.DistSq(p, seg[m].P) <= r2 {
					buf = append(buf, objs[m])
				}
			}
			// One list: existing matches first, then intra-segment ones;
			// the existing prefix doubles as phase 2's reverse-wiring
			// work list.
			o.nbrs = append([]*object(nil), buf...)
			existing[k] = o.nbrs[:ne:ne]
			for _, q := range o.nbrs {
				o.tracker.Add(q.last)
			}
			o.coreLast = o.tracker.CoreLast(o.last)
		}
	})
	MetricDiscoverySeconds.Observe(time.Since(discoveryStart))
	discoverySpan.SetInt("tuples", int64(n))
	discoverySpan.SetInt("cells", int64(len(cells)))
	discoverySpan.End()
	applySpan := e.tr.Start("apply")
	applyStart := time.Now()

	// Phase 2 (sequential): cell membership and shared-state career
	// updates, in arrival order.
	var grown []*object
	for k := range seg {
		o := objs[k]
		coord := cells[tupCell[k]].coord
		c := e.cells[coord]
		if c == nil {
			c = &cell{coord: coord, coreLast: window.Never}
			e.cells[coord] = c
			for _, off := range e.geo.NeighborOffsets() {
				if off.IsZero() {
					continue
				}
				if nc, ok := e.cells[coord.Add(off)]; ok {
					c.nbrCells = append(c.nbrCells, nc)
					nc.nbrCells = append(nc.nbrCells, c)
				}
			}
		}
		o.cell = c
		o.cellIdx = len(c.objs)
		c.objs = append(c.objs, o)
		e.objCount++
		e.expiry[o.last] = append(e.expiry[o.last], o)

		// Intra-segment pairs were fully handled in phase 1 (both sides'
		// trackers and neighbor lists); only pre-existing neighbors carry
		// shared trackers that must grow in arrival order — and only while
		// their careers can still grow (see safeCore).
		for _, q := range existing[k] {
			if safeCore(q) {
				continue
			}
			q.nbrs = append(q.nbrs, o)
			if q.tracker.Add(o.last) {
				if nl := q.tracker.CoreLast(q.last); nl > q.coreLast {
					q.coreLast = nl
					if q.grownSeg != e.segSeq {
						q.grownSeg = e.segSeq
						grown = append(grown, q)
					}
				}
			}
		}
	}

	// Phase 3 (sequential): propagate final careers to cell statuses and
	// connections, once per touched object.
	for _, o := range objs {
		e.refresh(o)
	}
	for _, q := range grown {
		e.refresh(q)
	}
	MetricApplySeconds.Observe(time.Since(applyStart))
	applySpan.SetInt("tuples", int64(n))
	applySpan.SetInt("grown", int64(len(grown)))
	applySpan.End()
}
