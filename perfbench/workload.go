package main

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamsum"
	"streamsum/internal/archive"
	"streamsum/internal/gen"
)

// e2e holds what one untraced run measured through the public API.
type e2e struct {
	setup    []float64 // seconds, one per set-up
	tuples   int
	ingestT  time.Duration // span of the ingest phase
	window   []float64     // ms per slide, from due to PushBatch return
	match    []float64     // ms per one-shot query, from due to return
	queries  int
	matchT   time.Duration // span of the query phase
	event    []float64     // ms per event, from its slide's due time to receipt
	lateness []float64     // ms the open-loop generators started late

	attempted, failed int
	peakRSS           float64
	fdsDelta          int
}

func (r *e2e) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

// genSlides draws n slides of the seeded input: STT trading sessions of
// c.SessionSlides slides each, every session generated from its own seed
// and shifted in time to follow the one before. One STT seed fixes the
// symbols' price layout, and with it how often bursts overlap, for the
// whole session; a run that spans several sessions averages over several
// layouts instead of resting on one.
//
// Each slide keeps its coordinates in one block, so the input adds few
// objects to the heap the collector scans while the workload runs.
func genSlides(c sizes, seed int64, n int) [][]streamsum.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]streamsum.Point, 0, n)
	offset := 0.0
	for len(out) < n {
		k := min(c.SessionSlides, n-len(out))
		b := gen.STT(gen.STTConfig{Seed: rng.Int63()}, k*c.Slide)
		last := 0.0
		for i := 0; i < k; i++ {
			flat := make([]float64, 0, c.Slide*c.Dim)
			pts := make([]streamsum.Point, c.Slide)
			for j, p := range b.Points[i*c.Slide : (i+1)*c.Slide] {
				flat = append(flat, p...)
				pts[j] = flat[j*c.Dim : (j+1)*c.Dim : (j+1)*c.Dim]
				pts[j][timeDim] += offset
				last = pts[j][timeDim]
			}
			out = append(out, pts)
		}
		offset = last
	}
	return out
}

// timeDim is the STT tuple's time attribute (gen.STT).
const timeDim = 3

// ingestSlides pushes slides one PushBatch each and returns the clusters'
// summaries and the number of windows emitted.
func ingestSlides(eng *streamsum.Engine, slides [][]streamsum.Point) ([]*streamsum.Summary, int, error) {
	var sums []*streamsum.Summary
	windows := 0
	for _, s := range slides {
		ws, err := eng.PushBatch(s, nil)
		if err != nil {
			return nil, 0, err
		}
		windows += len(ws)
		for _, w := range ws {
			for _, cl := range w.Clusters {
				sums = append(sums, cl.Summary)
			}
		}
	}
	return sums, windows, nil
}

// setupRepeated runs setup repeats times (at least once), recording each
// set-up time and keeping the last result; teardown releases each earlier
// one.
func setupRepeated[T any](repeats int, r *e2e, setup func() (T, error), teardown func(T)) (T, error) {
	var cur T
	for i := 0; i < max(repeats, 1); i++ {
		if i > 0 {
			teardown(cur)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return cur, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		cur = v
	}
	return cur, nil
}

// runIngest is closed-loop ingest into a memory-only pattern base: set-up
// fills the first window, then one PushBatch per slide for dur.
func runIngest(c sizes, seed int64, dur time.Duration, repeats int) (*e2e, *checks, error) {
	slides := genSlides(c, seed, c.prefill()+c.IngestSlides)
	r := &e2e{}
	ck := &checks{}
	fds0 := openFDs()
	opts := c.options("")
	opts.Archive.Capacity = c.IngestCapacity
	eng, err := setupRepeated(repeats, r, func() (*streamsum.Engine, error) {
		eng, err := streamsum.New(opts)
		if err != nil {
			return nil, err
		}
		if _, _, err := ingestSlides(eng, slides[:c.prefill()]); err != nil {
			_ = eng.Close()
			return nil, err
		}
		return eng, nil
	}, func(e *streamsum.Engine) { _ = e.Close() })
	if err != nil {
		return nil, nil, err
	}
	// The measured slides cycle through the generated ones. Each pass
	// moves the slides it reuses forward in time by the span of one pass,
	// so the stream goes on in time instead of jumping back to where it
	// began. The moved slides left the window long before.
	measured := slides[c.prefill():]
	pass := measured[len(measured)-1][c.Slide-1][timeDim] - measured[0][0][timeDim] + 1
	t0 := time.Now()
	for k := 0; time.Since(t0) < dur; k++ {
		s := measured[k%len(measured)]
		if k >= len(measured) {
			for _, p := range s {
				p[timeDim] += pass
			}
		}
		start := time.Now()
		ws, err := eng.PushBatch(s, nil)
		r.window = append(r.window, ms(time.Since(start)))
		r.tuples += len(s)
		r.op(err)
		if err == nil && len(ws) != 1 {
			ck.failf("slide %d closed %d windows, want 1", k, len(ws))
		}
	}
	r.ingestT = time.Since(t0)
	r.peakRSS = peakRSSMB()
	if err := eng.Close(); err != nil {
		ck.failf("close: %v", err)
	}
	r.fdsDelta = openFDs() - fds0
	ck.batchEqualsPush(c, slides[:min(c.CheckSlides, len(slides))])
	return r, ck, nil
}

// oneShot is one recorded one-shot query and the base it ran against.
type oneShot struct {
	target *streamsum.Summary
	got    []streamsum.Match
	base   *archive.Snapshot
}

// runMatch is one closed-loop analyst over memory-only histories built
// in set-up: position-insensitive one-shot matches whose targets are
// drawn by seed from the archived entries. Each set-up builds its own
// history from its own slice of the seeded stream, and the analyst
// queries all of them in turn: how costly a history is to search varies
// with the stream it was built from, and a run that spans several
// histories averages over them.
func runMatch(c sizes, seed int64, dur time.Duration, repeats int) (*e2e, *checks, error) {
	n := max(repeats, 1)
	histories := make([][][]streamsum.Point, n)
	for i := range histories {
		histories[i] = genSlides(c, seed+int64(i)<<32, c.prefill()+c.HistoryWindows)
	}
	r := &e2e{}
	ck := &checks{}
	fds0 := openFDs()
	var engines []*streamsum.Engine
	defer func() {
		for _, eng := range engines {
			_ = eng.Close()
		}
	}()
	for _, slides := range histories {
		start := time.Now()
		eng, err := streamsum.New(c.options(""))
		if err != nil {
			return nil, nil, err
		}
		engines = append(engines, eng)
		if _, _, err := ingestSlides(eng, slides); err != nil {
			return nil, nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	picks := make([]*targets, n)
	snaps := make([]*archive.Snapshot, n) // the bases stay as set-up left them
	for i, eng := range engines {
		var err error
		if picks[i], err = newTargets(seed+int64(i), idOrder(eng.PatternBase())); err != nil {
			return nil, nil, err
		}
		snaps[i] = eng.PatternBase().Snapshot()
	}
	var recorded []oneShot
	t0 := time.Now()
	for j := 0; time.Since(t0) < dur; j++ {
		eng, target := engines[j%n], picks[j%n].next()
		start := time.Now()
		got, _, err := eng.Match(streamsum.MatchOptions{Target: target, Threshold: c.Threshold, Limit: c.Limit})
		r.match = append(r.match, ms(time.Since(start)))
		r.queries++
		r.op(err)
		recorded = append(recorded, oneShot{target, got, snaps[j%n]})
	}
	r.matchT = time.Since(t0)
	r.peakRSS = peakRSSMB()
	ck.sampledMatches(c, pickSample(seed, recorded, c.CheckQueries))
	for _, eng := range engines {
		if err := eng.Close(); err != nil {
			ck.failf("close: %v", err)
		}
	}
	engines = nil
	r.fdsDelta = openFDs() - fds0
	ck.batchEqualsPush(c, histories[0][:min(c.CheckSlides, len(histories[0]))])
	return r, ck, nil
}

// targets draws one-shot query targets by seed, in rounds that take one
// summary from each of targetStrata bands of the candidates ordered by
// size. Query cost grows steeply with the target's size, so a fixed share
// per band keeps the latency percentiles from moving with how many large
// targets a run happened to draw.
type targets struct {
	strata [][]*streamsum.Summary
	rng    *rand.Rand
	n      int
}

// targetStrata is the number of size bands query targets are drawn from.
const targetStrata = 10

func newTargets(seed int64, pool []*streamsum.Summary) (*targets, error) {
	if len(pool) < targetStrata {
		return nil, fmt.Errorf("only %d summaries to draw query targets from", len(pool))
	}
	bySize := append([]*streamsum.Summary(nil), pool...)
	sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].NumCells() < bySize[j].NumCells() })
	t := &targets{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < targetStrata; i++ {
		t.strata = append(t.strata, bySize[i*len(bySize)/targetStrata:(i+1)*len(bySize)/targetStrata])
	}
	return t, nil
}

func (t *targets) next() *streamsum.Summary {
	s := t.strata[t.n%len(t.strata)]
	t.n++
	return s[t.rng.Intn(len(s))]
}

// tieredSetup is the tiered_mixed state set-up leaves behind.
type tieredSetup struct {
	eng     *streamsum.Engine
	dir     string
	pool    []*streamsum.Summary // small prefix summaries, query and subscription targets
	subs    []*streamsum.Subscription
	targets []*streamsum.Summary // one per subscription
	windows int                  // windows closed during set-up
}

func (t *tieredSetup) close() {
	if t.eng != nil {
		_ = t.eng.Close()
	}
	_ = os.RemoveAll(t.dir)
}

// newTiered opens a disk-tiered engine in a fresh store directory under
// work, ingests the prefix and registers the subscriptions.
func newTiered(c sizes, seed int64, work string, prefix [][]streamsum.Point) (*tieredSetup, error) {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return nil, err
	}
	t := &tieredSetup{dir: dir}
	t.eng, err = streamsum.New(c.options(dir))
	if err == nil {
		t.pool, t.windows, err = ingestSlides(t.eng, prefix)
	}
	if err == nil {
		t.pool, err = smallTargets(c, t.pool)
	}
	if err == nil {
		t.targets = subTargets(c, seed, t.pool)
	}
	for i := 0; err == nil && i < len(t.targets); i++ {
		var s *streamsum.Subscription
		s, err = t.eng.Subscribe(streamsum.SubscribeOptions{Target: t.targets[i], Threshold: c.SubThreshold})
		t.subs = append(t.subs, s)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// smallTargets returns the prefix summaries that tiered_mixed's
// subscriptions and analyst target: those of at most c.TargetCells cells.
// Small bursts recur throughout the stream, while a large cluster's shape
// rarely comes back within a run, so only small targets yield a steady
// flow of events. A large one-shot target costs up to ten slides' worth of
// processing, so with large targets the window latency tail would turn on
// whether a run's few such queries overlapped slides; the match workload
// measures large targets.
func smallTargets(c sizes, pool []*streamsum.Summary) ([]*streamsum.Summary, error) {
	var small []*streamsum.Summary
	for _, s := range pool {
		if s.NumCells() <= c.TargetCells {
			small = append(small, s)
		}
	}
	if len(small) == 0 {
		return nil, fmt.Errorf("tiered_mixed: no prefix summary of at most %d cells", c.TargetCells)
	}
	return small, nil
}

// subTargets draws the subscriptions' targets by seed from small.
func subTargets(c sizes, seed int64, small []*streamsum.Summary) []*streamsum.Summary {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*streamsum.Summary, c.Subs)
	for i := range out {
		out[i] = small[rng.Intn(len(small))]
	}
	return out
}

// consumer drains every subscription from one goroutine, stamping each
// event with its receipt time.
type consumer struct {
	events   [][]streamsum.SubEvent // per subscription
	received [][]time.Time
	count    atomic.Int64
	done     chan struct{}
}

func startConsumer(subs []*streamsum.Subscription) *consumer {
	cs := &consumer{
		events:   make([][]streamsum.SubEvent, len(subs)),
		received: make([][]time.Time, len(subs)),
		done:     make(chan struct{}),
	}
	cases := make([]reflect.SelectCase, len(subs))
	for i, s := range subs {
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.Events())}
	}
	go func() {
		defer close(cs.done)
		for open := len(cases); open > 0; {
			i, v, ok := reflect.Select(cases)
			if !ok {
				cases[i].Chan = reflect.Value{} // closed: never selected again
				open--
				continue
			}
			now := time.Now()
			cs.events[i] = append(cs.events[i], v.Interface().(streamsum.SubEvent))
			cs.received[i] = append(cs.received[i], now)
			cs.count.Add(1)
		}
	}()
	return cs
}

// drain waits until the consumer holds every event the registry
// delivered (as the delivered callback counts them), then cancels the subscriptions and waits for it to exit.
func (cs *consumer) drain(subs []*streamsum.Subscription, delivered func() int64) error {
	for _, s := range subs {
		s.Sync()
	}
	want := delivered()
	deadline := time.Now().Add(30 * time.Second)
	for cs.count.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, s := range subs {
		s.Cancel()
	}
	<-cs.done
	if got := cs.count.Load(); got != want {
		return fmt.Errorf("consumer received %d of %d events", got, want)
	}
	return nil
}

// schedule is an open-loop timetable: operation k is due at t0 + k·every.
type schedule struct {
	t0    time.Time
	every time.Duration
}

// tieredSchedules returns the timetables of tiered_mixed's paced ingest
// and of its analyst, both starting now. The analyst's queries fall due
// half a slide after a slide: with one query every few slides, both would
// otherwise fall due at the same instant and race for the processors.
func tieredSchedules(c sizes) (ingest, queries schedule) {
	every := time.Duration(float64(time.Second) * float64(c.Slide) / float64(c.Rate))
	ingest = schedule{t0: time.Now().Add(5 * time.Millisecond), every: every}
	queries = schedule{t0: ingest.t0.Add(every / 2), every: time.Duration(float64(time.Second) / c.QPS)}
	return ingest, queries
}

func (s schedule) due(k int) time.Time { return s.t0.Add(time.Duration(k) * s.every) }

// wait sleeps until operation k is due and returns how late it starts.
func (s schedule) wait(k int) time.Duration {
	due := s.due(k)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return time.Since(due)
}

// runTiered is writes beside reads on the disk tier, all open loop:
// paced ingest, one analyst on a fixed query schedule, and standing
// subscriptions drained by one consumer.
func runTiered(c sizes, seed int64, dur time.Duration, repeats int, work string) (*e2e, *checks, error) {
	prefixN := c.prefill() + c.PrefixWindows
	n := int(dur.Seconds() * float64(c.Rate) / float64(c.Slide))
	slides := genSlides(c, seed, prefixN+n)
	r := &e2e{}
	ck := &checks{}
	fds0 := openFDs()
	ts, err := setupRepeated(repeats, r, func() (*tieredSetup, error) {
		return newTiered(c, seed, work, slides[:prefixN])
	}, (*tieredSetup).close)
	if err != nil {
		return nil, nil, err
	}
	defer ts.close()
	eng := ts.eng
	picks, err := newTargets(seed, ts.pool)
	if err != nil {
		return nil, nil, err
	}
	cs := startConsumer(ts.subs)

	ingest, queries := tieredSchedules(c)
	var (
		mu       sync.Mutex
		recorded []oneShot
		wg       sync.WaitGroup
		ingestOK atomic.Bool
	)
	ingestOK.Store(true)
	wg.Add(2)
	go func() { // paced ingest
		defer wg.Done()
		for k := 0; k < n; k++ {
			late := ingest.wait(k)
			ws, err := eng.PushBatch(slides[prefixN+k], nil)
			end := time.Now()
			mu.Lock()
			r.lateness = append(r.lateness, ms(late))
			r.window = append(r.window, ms(end.Sub(ingest.due(k))))
			r.tuples += c.Slide
			r.ingestT = end.Sub(ingest.t0)
			r.op(err)
			mu.Unlock()
			if err == nil && len(ws) != 1 {
				ingestOK.Store(false)
			}
		}
	}()
	go func() { // analyst
		defer wg.Done()
		end := ingest.due(n)
		for j := 0; queries.due(j).Before(end); j++ {
			target := picks.next()
			late := queries.wait(j)
			got, _, err := eng.Match(streamsum.MatchOptions{Target: target, Threshold: c.Threshold, Limit: c.Limit})
			done := time.Now()
			mu.Lock()
			r.lateness = append(r.lateness, ms(late))
			r.match = append(r.match, ms(done.Sub(queries.due(j))))
			r.queries++
			r.matchT = done.Sub(queries.t0)
			r.op(err)
			recorded = append(recorded, oneShot{target: target, got: got})
			mu.Unlock()
		}
	}()
	wg.Wait()
	if err := cs.drain(ts.subs, func() int64 { return int64(eng.SubscriptionStats().Events) }); err != nil {
		ck.failf("%v", err)
	}
	if !ingestOK.Load() {
		ck.failf("a measured slide did not close exactly one window")
	}
	for i := range cs.events {
		for j, ev := range cs.events[i] {
			k := int(ev.Seq) - ts.windows // measured slide that closed the window
			if k < 0 || k >= n {
				ck.failf("event seq %d outside the measured slides", ev.Seq)
				continue
			}
			r.event = append(r.event, ms(cs.received[i][j].Sub(ingest.due(k))))
		}
	}
	r.peakRSS = peakRSSMB()

	ck.tieredStore(eng.PatternBase().TierStats())
	ck.orderedMatches(c, recorded)
	ck.sampledMatches(c, reissue(eng, c, pickSample(seed, recorded, c.CheckQueries)))
	ck.events(c, ts.targets, cs.events)
	want := eng.PatternBase().Len()
	err = eng.Close()
	ts.eng = nil
	if err != nil {
		ck.failf("close: %v", err)
	}
	r.fdsDelta = openFDs() - fds0
	ck.reopen(c, ts.dir, want)
	ck.batchEqualsPush(c, slides[:min(c.CheckSlides, len(slides))])
	return r, ck, nil
}

// reissue runs the sampled queries' targets again once ingest has
// stopped, so the brute-force reference sees the same pattern base.
func reissue(eng *streamsum.Engine, c sizes, recorded []oneShot) []oneShot {
	out := make([]oneShot, len(recorded))
	for i, q := range recorded {
		got, _, err := eng.Match(streamsum.MatchOptions{Target: q.target, Threshold: c.Threshold, Limit: c.Limit})
		if err != nil {
			got = nil
		}
		out[i] = oneShot{q.target, got, eng.PatternBase().Snapshot()}
	}
	return out
}
