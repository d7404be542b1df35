package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamsum"
	"streamsum/internal/archive"
	"streamsum/internal/core"
	"streamsum/internal/geom"
	"streamsum/internal/match"
	"streamsum/internal/sgs"
	"streamsum/internal/stream"
	"streamsum/internal/sub"
	"streamsum/internal/trace"
	"streamsum/internal/window"
)

// The traced run does what streamsum.Engine does, but through each
// layer's exported call, with one span of the benchmark's own around
// each call: core.Extractor.PushBatch, the stream.ArchiveWindowsEval
// sink (PutBatch) with sub.Registry.OfferTraced as its hook,
// archive.Base.Snapshot and match.Run. match.Run and OfferTraced record
// their own phase spans into an internal trace; those are adopted as
// children of the benchmark's span.

// spanRec is one finished span. Times are ns since the run's start.
type spanRec struct {
	Trace  uint64           `json:"trace"`
	ID     uint64           `json:"id"`
	Parent uint64           `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s spanRec) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

// span is an open span; the zero span records nothing.
type span struct {
	t                 *tracer
	trace, id, parent uint64
	name              string
	start             time.Time
}

// rootAt opens a new trace whose root span starts at start (the moment
// the operation was due).
func (t *tracer) rootAt(name string, start time.Time) span {
	id := t.ids.Add(1)
	return span{t: t, trace: id, id: id, name: name, start: start}
}

func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	return span{t: s.t, trace: s.trace, id: s.t.ids.Add(1), parent: s.id, name: name, start: time.Now()}
}

func (s span) end() spanRec {
	if s.t == nil {
		return spanRec{}
	}
	rec := spanRec{
		Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name,
		Start: int64(s.start.Sub(s.t.t0)), End: int64(time.Since(s.t.t0)),
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
	return rec
}

// adopt records a finished internal trace's spans as descendants of s,
// each name prefixed with the layer's, since match and sub both name a
// phase "refine".
func (s span) adopt(td trace.TraceData, layer string) {
	if s.t == nil || len(td.Spans) < 2 {
		return
	}
	ids := map[uint32]uint64{td.Spans[0].ID: s.id}
	for _, sd := range td.Spans[1:] {
		ids[sd.ID] = s.t.ids.Add(1)
	}
	base := s.t.t0.UnixNano()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for _, sd := range td.Spans[1:] {
		var attrs map[string]int64
		for k := range sd.Attrs {
			if v, ok := sd.Int(k); ok {
				if attrs == nil {
					attrs = map[string]int64{}
				}
				attrs[k] = v
			}
		}
		s.t.spans = append(s.t.spans, spanRec{
			Trace: s.trace, ID: ids[sd.ID], Parent: ids[sd.Parent], Name: layer + sd.Name,
			Start: sd.StartNS - base, End: sd.StartNS - base + sd.DurNS, Attrs: attrs,
		})
	}
}

// write stores the spans, one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layers derives per-span-name durations and self times.
type layers struct {
	dur, self map[string][]float64
	attr      map[string]map[string]int64 // name → attribute → sum
}

func (t *tracer) layers() layers {
	children := map[uint64][]spanRec{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	l := layers{dur: map[string][]float64{}, self: map[string][]float64{}, attr: map[string]map[string]int64{}}
	for _, s := range t.spans {
		l.dur[s.Name] = append(l.dur[s.Name], s.ms())
		l.self[s.Name] = append(l.self[s.Name], s.ms()-covered(s, children[s.ID]))
		if l.attr[s.Name] == nil {
			l.attr[s.Name] = map[string]int64{}
		}
		for k, v := range s.Attrs {
			l.attr[s.Name][k] += v
		}
	}
	return l
}

// covered is how much of parent's interval its children cover, in ms
// (children may overlap: the filter phase probes shards in parallel).
func covered(parent spanRec, kids []spanRec) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(k.Start, parent.Start), min(k.End, parent.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curS, curE = iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curE {
			total += max(curE-curS, 0)
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	total += max(curE-curS, 0)
	return float64(total) / 1e6
}

// pipeline is the engine rebuilt from its layers.
type pipeline struct {
	c    sizes
	ext  *core.Extractor
	base *archive.Base
	reg  *sub.Registry
	sink func(int, *core.WindowResult) error
	cur  span // the window span the sink hook nests under

	mu        sync.Mutex
	offerDone []time.Time // by registry sequence number

	queueMax int
	windows  int
	clusters int
	cells    int
	sumBytes int
	alloc    uint64
	tuples   int
}

func newPipeline(c sizes, storeDir string, capacity int) (*pipeline, error) {
	n := runtime.NumCPU()
	ext, err := core.New(core.Config{
		Dim: c.Dim, ThetaR: c.ThetaR, ThetaC: c.ThetaC,
		Window:  window.Spec{Win: int64(c.Win), Slide: int64(c.Slide)},
		Workers: n, EmitWorkers: n,
	})
	if err != nil {
		return nil, err
	}
	ac := archive.Config{Dim: c.Dim, Capacity: capacity}
	if storeDir != "" {
		ac.StorePath, ac.MaxMemBytes, ac.SummaryCacheBytes = storeDir, c.StoreMaxMem, c.CacheBytes
	}
	base, err := archive.New(ac)
	if err != nil {
		return nil, err
	}
	reg, err := sub.NewRegistry(sub.Config{Dim: c.Dim, Workers: n})
	if err != nil {
		_ = base.Close()
		return nil, err
	}
	p := &pipeline{c: c, ext: ext, base: base, reg: reg}
	p.sink = stream.ArchiveWindowsEval(base, p.offer, nil)
	return p, nil
}

func (p *pipeline) close() error {
	p.reg.Close()
	if p.base.Config().StorePath != "" {
		if err := p.base.FlushMem(); err != nil {
			_ = p.base.Close()
			return err
		}
	}
	return p.base.Close()
}

// offer is the sink's evaluation hook.
func (p *pipeline) offer(_ int, _ *core.WindowResult, entries []*archive.Entry, _ *trace.Trace) error {
	sp := p.cur.child("sub.offer")
	var tr *trace.Trace
	if sp.t != nil {
		tr = trace.New(trace.SubEval, "sub.offer", trace.ID{})
	}
	err := p.reg.OfferTraced(entries, tr)
	sp.end()
	done := time.Now()
	if td, ok := tr.Finish(); ok {
		sp.adopt(td, "sub.")
	}
	p.mu.Lock()
	p.offerDone = append(p.offerDone, done)
	p.mu.Unlock()
	p.queueMax = max(p.queueMax, p.reg.QueueDepth())
	return err
}

// push feeds one slide through the extractor and archives its windows;
// with a live root it records the core and archive spans and counts.
func (p *pipeline) push(root span, pts []geom.Point) ([]*core.WindowResult, error) {
	var m0, m1 runtime.MemStats
	if root.t != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := root.child("core.push_batch")
	ws, err := p.ext.PushBatch(pts, nil)
	sp.end()
	if root.t != nil {
		runtime.ReadMemStats(&m1)
		p.alloc += m1.TotalAlloc - m0.TotalAlloc
		p.tuples += len(pts)
	}
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		p.cur = root.child("archive.put_window")
		err := p.sink(0, w)
		p.cur.end()
		p.cur = span{}
		if err != nil {
			return ws, err
		}
	}
	return ws, nil
}

// count adds the windows' clusters and summaries to the exact counts.
func (p *pipeline) count(ws []*core.WindowResult) {
	for _, w := range ws {
		p.windows++
		p.clusters += len(w.Clusters)
		for _, cl := range w.Clusters {
			p.cells += cl.Summary.NumCells()
			p.sumBytes += sgs.EncodedSize(cl.Summary)
		}
	}
}

// ingest pushes slides untraced (set-up) and returns the windows they
// closed.
func (p *pipeline) ingest(slides [][]geom.Point) ([]*core.WindowResult, error) {
	var out []*core.WindowResult
	for _, s := range slides {
		ws, err := p.push(span{}, s)
		if err != nil {
			return nil, err
		}
		out = append(out, ws...)
	}
	return out, nil
}

func summariesOf(ws []*core.WindowResult) []*sgs.Summary {
	var out []*sgs.Summary
	for _, w := range ws {
		for _, cl := range w.Clusters {
			out = append(out, cl.Summary)
		}
	}
	return out
}

// queryStats accumulates the traced one-shot queries.
type queryStats struct {
	n, candidates, refined, results int
	mallocs                         uint64
}

// query runs one traced one-shot match under root.
func (p *pipeline) query(root span, target *sgs.Summary, qs *queryStats) error {
	sp := root.child("archive.snapshot")
	snap := p.base.Snapshot()
	sp.end()
	tr := trace.New(trace.Match, "match.run", trace.ID{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	msp := root.child("match.run")
	res, st, err := match.Run(snap, match.Query{
		Target: target, Threshold: p.c.Threshold, Limit: p.c.Limit,
		Workers: runtime.NumCPU(), Trace: tr,
	})
	msp.end()
	runtime.ReadMemStats(&m1)
	if td, ok := tr.Finish(); ok {
		msp.adopt(td, "match.")
	}
	qs.n++
	qs.mallocs += m1.Mallocs - m0.Mallocs
	if err != nil {
		return err
	}
	qs.candidates += st.IndexCandidates
	qs.refined += st.Refined
	qs.results += len(res)
	return nil
}

// traceRun is what the traced run measured.
type traceRun struct {
	attempted, failed int
	tr                *tracer
	p                 *pipeline
	qs                queryStats
	subs0, subs1      sub.Stats
	tier0, tier1      archive.TierStats
	window, match     []float64 // ms, due → done
	event             []float64
	deliveryWait      []float64
	gcCycles          uint32
	gcPauseMS         float64
}

// runTraced runs the workload's traced pass over a fixed amount of work,
// writes its spans and returns the measurements.
func runTraced(c sizes, workload string, seed int64, work string, log io.Writer) (*traceRun, *checks, error) {
	ck := &checks{}
	l := &traceRun{tr: &tracer{}}
	var storeDir string
	if workload == "tiered_mixed" {
		d, err := os.MkdirTemp(work, "store-")
		if err != nil {
			return nil, nil, err
		}
		storeDir = d
		defer func() { _ = os.RemoveAll(d) }()
	}
	capacity := 0
	if workload == "ingest" {
		capacity = c.IngestCapacity
	}
	p, err := newPipeline(c, storeDir, capacity)
	if err != nil {
		return nil, nil, err
	}
	l.p = p
	closed := false
	defer func() {
		if !closed {
			_ = p.close()
		}
	}()
	var ms0, ms1 runtime.MemStats
	switch workload {
	case "ingest":
		slides := genSlides(c, seed, c.prefill()+c.TracedSlides)
		if _, err := p.ingest(slides[:c.prefill()]); err != nil {
			return nil, nil, err
		}
		l.begin(p, &ms0)
		for _, s := range slides[c.prefill():] {
			root := l.tr.rootAt("slide", time.Now())
			ws, err := p.push(root, s)
			rec := root.end()
			l.op(err)
			l.window = append(l.window, rec.ms())
			p.count(ws)
		}
	case "match":
		slides := genSlides(c, seed, c.prefill()+c.HistoryWindows)
		ws, err := p.ingest(slides)
		if err != nil {
			return nil, nil, err
		}
		p.count(ws) // the history's windows and summaries are what match searches
		picks, err := newTargets(seed, idOrder(p.base))
		if err != nil {
			return nil, nil, err
		}
		l.begin(p, &ms0)
		for j := 0; j < c.TracedQueries; j++ {
			target := picks.next()
			root := l.tr.rootAt("query", time.Now())
			err := p.query(root, target, &l.qs)
			rec := root.end()
			l.op(err)
			l.match = append(l.match, rec.ms())
		}
	case "tiered_mixed":
		if err := l.tiered(c, seed, p, &ms0, ck); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err := p.base.DrainDemotions(); err != nil {
		ck.failf("demotion: %v", err)
	}
	runtime.ReadMemStats(&ms1)
	l.gcCycles = ms1.NumGC - ms0.NumGC
	l.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	l.subs1 = p.reg.Stats()
	l.tier1 = p.base.TierStats()
	if workload == "tiered_mixed" {
		ck.tieredStore(l.tier1)
	}
	closed = true
	if err := p.close(); err != nil {
		ck.failf("close: %v", err)
	}
	path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	if err := l.tr.write(path); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(log, "traced run: %d spans written to %s\n", len(l.tr.spans), path)
	return l, ck, nil
}

func (l *traceRun) op(err error) {
	l.attempted++
	if err != nil {
		l.failed++
	}
}

// begin marks the start of the traced phase.
func (l *traceRun) begin(p *pipeline, ms *runtime.MemStats) {
	l.subs0 = p.reg.Stats()
	l.tier0 = p.base.TierStats()
	runtime.ReadMemStats(ms)
	l.tr.t0 = time.Now()
}

// idOrder lists the pattern base's summaries in archive-id order.
func idOrder(base *archive.Base) []*sgs.Summary {
	var ents []*archive.Entry
	base.All(func(e *archive.Entry) bool {
		ents = append(ents, e)
		return true
	})
	sort.Slice(ents, func(i, j int) bool { return ents[i].ID < ents[j].ID })
	out := make([]*sgs.Summary, len(ents))
	for i, e := range ents {
		out[i] = e.Summary
	}
	return out
}

// tiered is the traced tiered_mixed pass: the same open-loop ingest,
// analyst and subscriptions as the untraced run, over TracedSlides
// slides.
func (l *traceRun) tiered(c sizes, seed int64, p *pipeline, ms0 *runtime.MemStats, ck *checks) error {
	prefixN := c.prefill() + c.PrefixWindows
	n := c.TracedSlides
	slides := genSlides(c, seed, prefixN+n)
	ws, err := p.ingest(slides[:prefixN])
	if err != nil {
		return err
	}
	setupWindows := len(ws)
	pool, err := smallTargets(c, summariesOf(ws))
	if err != nil {
		return err
	}
	targets := subTargets(c, seed, pool)
	var subs []*streamsum.Subscription
	for _, t := range targets {
		s, err := p.reg.Subscribe(sub.Options{Target: t, Threshold: c.SubThreshold})
		if err != nil {
			return err
		}
		subs = append(subs, s)
	}
	l.begin(p, ms0)
	cs := startConsumer(subs)
	ingest, queries := tieredSchedules(c)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	picks, err := newTargets(seed, pool)
	if err != nil {
		return err
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < n; k++ {
			ingest.wait(k)
			root := l.tr.rootAt("slide", ingest.due(k))
			ws, err := p.push(root, slides[prefixN+k])
			rec := root.end()
			p.count(ws)
			mu.Lock()
			l.op(err)
			l.window = append(l.window, rec.ms())
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		end := ingest.due(n)
		for j := 0; queries.due(j).Before(end); j++ {
			target := picks.next()
			queries.wait(j)
			root := l.tr.rootAt("query", queries.due(j))
			err := p.query(root, target, &l.qs)
			rec := root.end()
			mu.Lock()
			l.op(err)
			l.match = append(l.match, rec.ms())
			mu.Unlock()
		}
	}()
	wg.Wait()
	if err := cs.drain(subs, func() int64 { return int64(p.reg.Stats().Events - l.subs0.Events) }); err != nil {
		ck.failf("%v", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range cs.events {
		for j, ev := range cs.events[i] {
			k := int(ev.Seq) - setupWindows
			if k < 0 || k >= n || int(ev.Seq) >= len(p.offerDone) {
				ck.failf("traced event seq %d outside the measured slides", ev.Seq)
				continue
			}
			l.event = append(l.event, ms(cs.received[i][j].Sub(ingest.due(k))))
			l.deliveryWait = append(l.deliveryWait, ms(cs.received[i][j].Sub(p.offerDone[ev.Seq])))
		}
	}
	ck.events(c, targets, cs.events)
	return nil
}

// perLayer derives every per-layer metric. Layers a workload leaves idle
// report 0.
func perLayer(workload string, r *e2e, l *traceRun) map[string]float64 {
	ly := l.tr.layers()
	p, qs := l.p, l.qs
	primaryTraced, primary := l.window, r.window
	if workload == "match" {
		primaryTraced, primary = l.match, r.match
	}
	unattributed := ly.self["slide"]
	if workload == "match" {
		unattributed = ly.self["query"]
	}
	subWindows := float64(l.subs1.Windows - l.subs0.Windows)
	subRefined := float64(l.subs1.Refined - l.subs0.Refined)
	subEvents := float64(l.subs1.Events - l.subs0.Events)
	hits := float64(l.tier1.CacheHits - l.tier0.CacheHits)
	misses := float64(l.tier1.CacheMisses - l.tier0.CacheMisses)
	queries := float64(qs.n)
	summaries := float64(p.clusters)
	m := map[string]float64{
		"ingest_tuples_per_s":   ratio(float64(r.tuples), r.ingestT.Seconds()),
		"window_latency_p50_ms": quantile(r.window, 0.5),
		"window_latency_p90_ms": quantile(r.window, 0.9),
		"window_samples":        float64(len(r.window)),
		"match_latency_p50_ms":  quantile(r.match, 0.5),
		"match_latency_p90_ms":  quantile(r.match, 0.9),
		"match_samples":         float64(len(r.match)),
		"match_qps":             ratio(float64(r.queries), r.matchT.Seconds()),
		"event_latency_p50_ms":  quantile(r.event, 0.5),
		"event_latency_p90_ms":  quantile(r.event, 0.9),
		"event_samples":         float64(len(r.event)),
		"op_failure_ratio":      ratio(float64(r.failed), float64(r.attempted)),

		"core.push_batch_ms_p50":     quantile(ly.dur["core.push_batch"], 0.5),
		"core.push_batch_ms_p90":     quantile(ly.dur["core.push_batch"], 0.9),
		"core.alloc_bytes_per_tuple": ratio(float64(p.alloc), float64(p.tuples)),
		"core.clusters_per_window":   ratio(float64(p.clusters), float64(p.windows)),

		"sgs.cells_per_summary": ratio(float64(p.cells), summaries),
		"sgs.bytes_per_summary": ratio(float64(p.sumBytes), summaries),

		"archive.put_window_ms_p50": quantile(ly.self["archive.put_window"], 0.5),
		"archive.snapshot_ms_p50":   quantile(ly.dur["archive.snapshot"], 0.5),
		"archive.mem_entries":       float64(l.tier1.MemEntries),
		"archive.demoted_entries":   float64(l.tier1.SegEntries),

		"segstore.segments":                float64(l.tier1.Segments),
		"segstore.compactions":             float64(l.tier1.Compactions),
		"segstore.bytes_per_entry":         ratio(float64(l.tier1.SegBytes), float64(l.tier1.SegEntries)),
		"match.segments_probed_per_query":  ratio(float64(ly.attr["match.filter"]["segments_probed"]), queries),
		"match.segments_skipped_per_query": ratio(float64(ly.attr["match.filter"]["segments_skipped"]), queries),

		"sumcache.hit_ratio": ratio(hits, hits+misses),
		"sumcache.evictions": float64(l.tier1.CacheEvicted - l.tier0.CacheEvicted),

		"match.run_ms_p50":           quantile(ly.dur["match.run"], 0.5),
		"match.filter_ms_p50":        quantile(ly.dur["match.filter"], 0.5),
		"match.refine_ms_p50":        quantile(ly.dur["match.refine"], 0.5),
		"match.order_ms_p50":         quantile(ly.dur["match.order"], 0.5),
		"match.candidates_per_query": ratio(float64(qs.candidates), queries),
		"match.refined_per_query":    ratio(float64(qs.refined), queries),
		"match.refine_yield":         ratio(float64(qs.results), float64(qs.refined)),
		"match.allocs_per_query":     ratio(float64(qs.mallocs), queries),

		"sub.offer_ms_p50":          quantile(ly.dur["sub.offer"], 0.5),
		"sub.candidates_per_window": ratio(float64(l.subs1.Candidates-l.subs0.Candidates), subWindows),
		"sub.refined_per_window":    ratio(subRefined, subWindows),
		"sub.events":                subEvents,
		"sub.event_yield":           ratio(subEvents, subRefined),
		"sub.delivery_wait_ms_p50":  quantile(l.deliveryWait, 0.5),
		"sub.queue_depth_max":       float64(p.queueMax),

		"gen.lateness_p90_ms":       quantile(r.lateness, 0.9),
		"unattributed_ms_p50":       quantile(unattributed, 0.5),
		"trace_overhead_ratio":      ratio(quantile(primaryTraced, 0.5), quantile(primary, 0.5)),
		"runtime.gc_cycles":         float64(l.gcCycles),
		"runtime.gc_pause_ms_total": l.gcPauseMS,
		"proc.open_fds_delta":       float64(r.fdsDelta),
	}
	return m
}
