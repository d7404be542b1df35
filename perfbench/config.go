package main

import (
	"runtime"

	"streamsum"
)

// sizes fixes every input and load parameter of the three workloads. The
// benchmark runs paperSizes; the self-test runs tinySizes.
type sizes struct {
	// Stream and clustering query: the paper's STT case 2 (§8.1).
	Dim    int
	ThetaR float64
	ThetaC int
	Win    int
	Slide  int

	// SessionSlides is the length of one STT trading session (genSlides).
	SessionSlides int

	// ingest: distinct slides after the first window, which the measured
	// phase cycles through, and the memory-only base's capacity. With a
	// bound the base's size, and the cost of folding its index, stop
	// growing once the run reaches steady state, so neither memory nor
	// latency depends on how many windows a run archived.
	IngestSlides   int
	IngestCapacity int

	// SetupRepeats is how many times a run sets up its workload; setup_s
	// reports the median.
	SetupRepeats int

	// match: windows ingested into the memory-only history before the
	// closed-loop client starts, and the one-shot query parameters.
	HistoryWindows int
	Threshold      float64
	Limit          int

	// tiered_mixed: windows in the seeded prefix, the paced ingest rate,
	// the analyst's query rate, the standing subscriptions and the disk
	// tier's memory budgets.
	PrefixWindows int
	Rate          int // tuples per second
	QPS           float64
	Subs          int
	SubThreshold  float64
	TargetCells   int // subscriptions and analyst target prefix summaries of at most this many cells
	StoreMaxMem   int
	CacheBytes    int

	// Traced run: a fixed amount of work, so its counts repeat exactly.
	TracedSlides  int
	TracedQueries int

	// Output checks.
	CheckSlides  int // slides compared between PushBatch and Push
	CheckQueries int // queries compared against the brute-force reference
}

func paperSizes() sizes {
	return sizes{
		Dim: 4, ThetaR: 0.10, ThetaC: 8, Win: 10000, Slide: 1000,
		SessionSlides: 5, IngestSlides: 600, IngestCapacity: 2000, SetupRepeats: 3,
		HistoryWindows: 120, Threshold: 0.25, Limit: 5,
		PrefixWindows: 60, Rate: 12000, QPS: 2, Subs: 64, SubThreshold: 0.5, TargetCells: 10,
		StoreMaxMem: 1 << 20, CacheBytes: 128 << 10,
		TracedSlides: 150, TracedQueries: 150,
		CheckSlides: 15, CheckQueries: 8,
	}
}

// prefill is the number of slides that fill the first window; from then
// on every slide closes exactly one window.
func (c sizes) prefill() int { return c.Win / c.Slide }

// options is the engine configuration every workload shares; storeDir
// attaches the disk tier when non-empty.
func (c sizes) options(storeDir string) streamsum.Options {
	n := runtime.NumCPU()
	o := streamsum.Options{
		Dim: c.Dim, ThetaR: c.ThetaR, ThetaC: c.ThetaC,
		Win: int64(c.Win), Slide: int64(c.Slide),
		Archive: &streamsum.ArchiveOptions{},
		Workers: n, EmitWorkers: n, MatchWorkers: n, SubWorkers: n,
	}
	if storeDir != "" {
		o.StorePath = storeDir
		o.StoreMaxMemBytes = c.StoreMaxMem
		o.SummaryCacheBytes = c.CacheBytes
	}
	return o
}

// The metric names and units the benchmark prints. BENCHMARK.json lists
// the same names; the self-test keeps the two in step.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"latency_p50_ms":   "ms",
	"latency_p90_ms":   "ms",
	"peak_rss_mb":      "MB",
}

var perLayerUnits = map[string]string{
	// The figures of each path, from the untraced phase of the
	// traced run; 0 where the workload does not exercise the path.
	"ingest_tuples_per_s":   "1/s",
	"window_latency_p50_ms": "ms",
	"window_latency_p90_ms": "ms",
	"window_samples":        "count",
	"match_latency_p50_ms":  "ms",
	"match_latency_p90_ms":  "ms",
	"match_samples":         "count",
	"match_qps":             "1/s",
	"event_latency_p50_ms":  "ms",
	"event_latency_p90_ms":  "ms",
	"event_samples":         "count",
	"op_failure_ratio":      "ratio",

	"core.push_batch_ms_p50":     "ms",
	"core.push_batch_ms_p90":     "ms",
	"core.alloc_bytes_per_tuple": "B",
	"core.clusters_per_window":   "count",

	"sgs.cells_per_summary": "count",
	"sgs.bytes_per_summary": "B",

	"archive.put_window_ms_p50": "ms",
	"archive.snapshot_ms_p50":   "ms",
	"archive.mem_entries":       "count",
	"archive.demoted_entries":   "count",

	"segstore.segments":                "count",
	"segstore.compactions":             "count",
	"segstore.bytes_per_entry":         "B",
	"match.segments_probed_per_query":  "count",
	"match.segments_skipped_per_query": "count",

	"sumcache.hit_ratio": "ratio",
	"sumcache.evictions": "count",

	"match.run_ms_p50":           "ms",
	"match.filter_ms_p50":        "ms",
	"match.refine_ms_p50":        "ms",
	"match.order_ms_p50":         "ms",
	"match.candidates_per_query": "count",
	"match.refined_per_query":    "count",
	"match.refine_yield":         "ratio",
	"match.allocs_per_query":     "count",

	"sub.offer_ms_p50":          "ms",
	"sub.candidates_per_window": "count",
	"sub.refined_per_window":    "count",
	"sub.events":                "count",
	"sub.event_yield":           "ratio",
	"sub.delivery_wait_ms_p50":  "ms",
	"sub.queue_depth_max":       "count",

	"gen.lateness_p90_ms":       "ms",
	"unattributed_ms_p50":       "ms",
	"trace_overhead_ratio":      "ratio",
	"runtime.gc_cycles":         "count",
	"runtime.gc_pause_ms_total": "ms",
	"proc.open_fds_delta":       "count",
}
