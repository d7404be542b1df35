// Benchmark harness regenerating the paper's evaluation (§8), one bench
// family per figure. Absolute numbers depend on the host; the paper's
// claims are about *shapes* — which method wins, by what factor, and how
// costs scale with win/slide and archive size. cmd/experiments prints the
// full paper-style tables; these benches make the same measurements
// available to `go test -bench`.
//
//	BenchmarkFig7Window/...    — §8.1, per-window response time of
//	                             extraction + summarization (steady state)
//	BenchmarkFig8Match/...     — §8.2, matching query response time
//	BenchmarkFig9Quality       — §8.3, similar-rate per method (reported
//	                             as custom metrics)
//	BenchmarkTimeVar/...       — tech-report: time-based windows under
//	                             fluctuating arrival rate
//	BenchmarkResolution/...    — tech-report: multi-resolution matching
package streamsum

import (
	"fmt"
	"sync"
	"testing"

	"streamsum/internal/core"
	"streamsum/internal/crd"
	"streamsum/internal/experiments"
	"streamsum/internal/extran"
	"streamsum/internal/gen"
	"streamsum/internal/geom"
	"streamsum/internal/match"
	"streamsum/internal/rsp"
	"streamsum/internal/skps"
	"streamsum/internal/window"
)

// benchWin is the window size used by the streaming benches. The paper
// uses 10K; 10K fill per bench setup is affordable, so we keep it.
const benchWin = experiments.Fig7Win

var sttCache = struct {
	sync.Mutex
	data map[int64]gen.Batch
}{data: map[int64]gen.Batch{}}

func benchSTT(n int) gen.Batch {
	sttCache.Lock()
	defer sttCache.Unlock()
	key := int64(n)
	if b, ok := sttCache.data[key]; ok {
		return b
	}
	b := gen.STT(gen.STTConfig{Seed: 2011}, n)
	sttCache.data[key] = b
	return b
}

type pusher interface {
	Push(p geom.Point, ts int64) (int64, []*core.WindowResult, error)
}

// benchFig7 measures steady-state per-window cost: each b.N iteration
// pushes one slide's worth of tuples (triggering exactly one window
// emission) and performs the method's summarization work.
func benchFig7(b *testing.B, method string, pc experiments.ParamCase, slide int64) {
	data := benchSTT(benchWin + 60*int(slide))
	wcfg := core.Config{
		Dim: 4, ThetaR: pc.ThetaR, ThetaC: pc.ThetaC,
		Window: window.Spec{Win: benchWin, Slide: slide},
	}
	var proc pusher
	var err error
	switch method {
	case "C-SGS":
		proc, err = core.New(wcfg)
	case "C-SGS-full":
		wcfg.SkipSummaries = true
		proc, err = core.New(wcfg)
	default:
		proc, err = extran.New(wcfg)
	}
	if err != nil {
		b.Fatal(err)
	}
	pointAt := func(id int64) geom.Point { return data.Points[id%int64(len(data.Points))] }

	summarize := func(w *core.WindowResult) {
		for _, c := range w.Clusters {
			switch method {
			case "Extra-N", "C-SGS", "C-SGS-full":
				// Summaries (if any) were produced inside the extractor.
			case "Extra-N+CRD":
				pts := make([]geom.Point, len(c.Members))
				for i, id := range c.Members {
					pts[i] = pointAt(id)
				}
				if _, err := crd.FromPoints(pts, c.ID, w.Window); err != nil {
					b.Fatal(err)
				}
			case "Extra-N+RSP":
				pts := make([]geom.Point, len(c.Members))
				for i, id := range c.Members {
					pts[i] = pointAt(id)
				}
				if _, err := rsp.FromPoints(pts, c.ID, w.Window, experiments.RSPBudgetBytes, nil); err != nil {
					b.Fatal(err)
				}
			case "Extra-N+SkPS":
				pts := make([]geom.Point, len(c.Members))
				coreSet := make(map[int64]bool, len(c.Cores))
				for _, id := range c.Cores {
					coreSet[id] = true
				}
				isCore := make([]bool, len(c.Members))
				for i, id := range c.Members {
					pts[i] = pointAt(id)
					isCore[i] = coreSet[id]
				}
				if _, err := skps.FromCluster(pts, isCore, pc.ThetaR, c.ID, w.Window); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	// Fill the first window.
	var pushed int64
	for ; pushed < benchWin; pushed++ {
		if _, _, err := proc.Push(pointAt(pushed), 0); err != nil {
			b.Fatal(err)
		}
	}
	clusters := 0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for j := int64(0); j < slide; j++ {
			_, emitted, err := proc.Push(pointAt(pushed), 0)
			if err != nil {
				b.Fatal(err)
			}
			pushed++
			for _, w := range emitted {
				summarize(w)
				clusters += len(w.Clusters)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(clusters)/float64(b.N), "clusters/window")
}

// BenchmarkFig7Window reproduces Figure 7's response-time comparison: five
// methods on the paper's case 2 at slide 1K, plus the slide sweep (the
// win/slide dependence) for the baseline and C-SGS, plus the other two
// parameter cases for the headline pair.
func BenchmarkFig7Window(b *testing.B) {
	case2 := experiments.Cases[1]
	for _, m := range experiments.Methods {
		b.Run(fmt.Sprintf("%s/case2/slide1000", m), func(b *testing.B) {
			benchFig7(b, m, case2, 1000)
		})
	}
	for _, slide := range []int64{100, 5000} {
		for _, m := range []string{"Extra-N", "C-SGS"} {
			b.Run(fmt.Sprintf("%s/case2/slide%d", m, slide), func(b *testing.B) {
				benchFig7(b, m, case2, slide)
			})
		}
	}
	for _, ci := range []int{0, 2} {
		for _, m := range []string{"Extra-N", "C-SGS"} {
			b.Run(fmt.Sprintf("%s/%s/slide1000", m, experiments.Cases[ci].Name), func(b *testing.B) {
				benchFig7(b, m, experiments.Cases[ci], 1000)
			})
		}
	}
}

// --- Figure 8 -----------------------------------------------------------------

var storeCache = struct {
	sync.Mutex
	stores  map[int]*experiments.MatchStores
	targets map[int]*targetBundle
}{stores: map[int]*experiments.MatchStores{}, targets: map[int]*targetBundle{}}

type targetBundle struct {
	sgs  []*Summary
	crd  []*crd.Summary
	rsp  []*rsp.Summary
	skps []*skps.Summary
}

func benchStores(b *testing.B, size int) (*experiments.MatchStores, *targetBundle) {
	storeCache.Lock()
	defer storeCache.Unlock()
	st, ok := storeCache.stores[size]
	if !ok {
		var err error
		st, err = experiments.BuildMatchStores(size, 2011)
		if err != nil {
			b.Fatal(err)
		}
		storeCache.stores[size] = st
	}
	tb, ok := storeCache.targets[size]
	if !ok {
		clusters := gen.Clusters(gen.ClustersConfig{Seed: 4022}, 16)
		tb = &targetBundle{}
		for i, gc := range clusters {
			sc, err := SummarizeStatic(gc.Points, experiments.MatchParams.ThetaR, experiments.MatchParams.ThetaC)
			if err != nil || len(sc) == 0 {
				b.Fatalf("target %d: %v", i, err)
			}
			best := 0
			for j := range sc {
				if len(sc[j].Members) > len(sc[best].Members) {
					best = j
				}
			}
			pts := make([]geom.Point, len(sc[best].Members))
			isCore := make([]bool, len(sc[best].Members))
			coreSet := map[int64]bool{}
			for _, id := range sc[best].Cores {
				coreSet[id] = true
			}
			for j, id := range sc[best].Members {
				pts[j] = gc.Points[id]
				isCore[j] = coreSet[id]
			}
			c, _ := crd.FromPoints(pts, int64(i), 0)
			r, _ := rsp.FromPoints(pts, int64(i), 0, experiments.RSPBudgetBytes, nil)
			k, err := skps.FromCluster(pts, isCore, experiments.MatchParams.ThetaR, int64(i), 0)
			if err != nil {
				b.Fatal(err)
			}
			tb.sgs = append(tb.sgs, sc[best].Summary)
			tb.crd = append(tb.crd, c)
			tb.rsp = append(tb.rsp, r)
			tb.skps = append(tb.skps, k)
		}
		storeCache.targets[size] = tb
	}
	return st, tb
}

// BenchmarkFig8Match reproduces Figure 8: one matching query per
// iteration, per method and archive size. (The paper's 10K size is
// reproduced by cmd/experiments; benches stop at 2000 to keep setup time
// reasonable.)
func BenchmarkFig8Match(b *testing.B) {
	const threshold = 0.2
	for _, size := range []int{100, 1000, 2000} {
		b.Run(fmt.Sprintf("SGS/archive%d", size), func(b *testing.B) {
			st, tb := benchStores(b, size)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				target := tb.sgs[n%len(tb.sgs)]
				if _, _, err := match.Run(st.Base.Snapshot(), match.Query{Target: target, Threshold: threshold}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Base.Bytes()), "store-bytes")
		})
		b.Run(fmt.Sprintf("CRD/archive%d", size), func(b *testing.B) {
			st, tb := benchStores(b, size)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				target := tb.crd[n%len(tb.crd)]
				for _, s := range st.CRDs {
					_ = crd.Distance(target, s)
				}
			}
		})
		b.Run(fmt.Sprintf("RSP/archive%d", size), func(b *testing.B) {
			st, tb := benchStores(b, size)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				target := tb.rsp[n%len(tb.rsp)]
				for _, s := range st.RSPs {
					_ = rsp.Distance(target, s)
				}
			}
		})
		b.Run(fmt.Sprintf("SkPS/archive%d", size), func(b *testing.B) {
			st, tb := benchStores(b, size)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				target := tb.skps[n%len(tb.skps)]
				for _, s := range st.SkPSs {
					_ = skps.Distance(target, s)
				}
			}
		})
	}
}

// BenchmarkFig9Quality runs the §8.3 quality study once per iteration and
// reports the similar-rate of each method as custom metrics. One
// iteration is meaningful on its own (the study is deterministic given
// the seed).
func BenchmarkFig9Quality(b *testing.B) {
	for n := 0; n < b.N; n++ {
		results, err := experiments.RunFig9(experiments.Fig9Config{
			ArchiveSize: 100, Targets: 10, Seed: 2011,
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			for _, r := range results {
				b.ReportMetric(r.Tally.SimilarRate(), r.Method+"-similar-rate")
			}
		}
	}
}

// BenchmarkTimeVar reproduces the tech-report experiment: time-based
// windows under bursty arrivals, C-SGS vs Extra-N.
func BenchmarkTimeVar(b *testing.B) {
	for _, method := range []string{"Extra-N", "C-SGS"} {
		b.Run(method, func(b *testing.B) {
			data := gen.GMTI(gen.GMTIConfig{Seed: 2011}, 20000)
			wcfg := core.Config{
				Dim: 2, ThetaR: 1.2, ThetaC: 5,
				Window: window.Spec{Kind: window.TimeBased, Win: 600, Slide: 60},
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				var proc pusher
				var err error
				if method == "C-SGS" {
					proc, err = core.New(wcfg)
				} else {
					proc, err = extran.New(wcfg)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				ts := int64(0)
				for i, p := range data.Points {
					if i%3 == 0 {
						ts++
					}
					if _, _, err := proc.Push(p, ts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkResolution measures matching cost at each SGS resolution level
// (§6.1): coarser summaries match faster but describe less.
func BenchmarkResolution(b *testing.B) {
	st, tb := benchStores(b, 500)
	for level := 0; level <= 2; level++ {
		b.Run(fmt.Sprintf("L%d", level), func(b *testing.B) {
			// Re-archive at this level.
			base, err := st.ReArchive(level, 3)
			if err != nil {
				b.Fatal(err)
			}
			targets := make([]*Summary, len(tb.sgs))
			for i, s := range tb.sgs {
				t, err := s.CompressTo(level, 3)
				if err != nil {
					b.Fatal(err)
				}
				targets[i] = t
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				target := targets[n%len(targets)]
				if _, _, err := match.Run(base.Snapshot(), match.Query{Target: target, Threshold: 1, Limit: 3}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(base.Bytes()), "store-bytes")
		})
	}
}
