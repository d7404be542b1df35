// Command perfbench is the repository's end-to-end benchmark. It drives
// the streamsum API in-process on the seeded STT stream (the paper's case
// 2) and prints, as its last line, one JSON object with the run's
// correctness, operation counts and metrics. See README.md.
//
//	perfbench --workload ingest|match|tiered_mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then again through each layer's
// exported call with the benchmark's own spans, and prints the
// per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workDir holds the stores and span files a run writes, inside the
// checkout it runs from.
const workDir = ".bench_build/perfbench/work"

// workloads are the workloads the command runs; BENCHMARK.json lists
// those whose figures are steady enough to gate a change on.
var workloads = []string{"ingest", "match", "tiered_mixed"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "seconds each measured phase runs")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkEnv(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, envLine())
	res, err := measure(paperSizes(), *workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, workDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, then the result
// as the last line.
func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// measure runs one workload and returns its result: the end-to-end
// metrics, or with traced the per-layer ones.
func measure(c sizes, workload string, seed int64, dur time.Duration, traced bool, work string, log io.Writer) (*result, error) {
	repeats := c.SetupRepeats
	if traced {
		repeats = 1 // set-up time is an end-to-end metric; measure it once here
	}
	var (
		r   *e2e
		ck  *checks
		err error
	)
	switch workload {
	case "ingest":
		r, ck, err = runIngest(c, seed, dur, repeats)
	case "match":
		r, ck, err = runMatch(c, seed, dur, repeats)
	case "tiered_mixed":
		r, ck, err = runTiered(c, seed, dur, repeats, work)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "samples window=%d match=%d event=%d setups=%d\n",
		len(r.window), len(r.match), len(r.event), len(r.setup))
	res := &result{Correct: ck.ok(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if !traced {
		for n, v := range endToEnd(workload, r) {
			res.Metrics[n] = metric{v, endToEndUnits[n]}
		}
	} else {
		l, tck, err := runTraced(c, workload, seed, work, log)
		if err != nil {
			return nil, err
		}
		ck.failures = append(ck.failures, tck.failures...)
		res.Correct = ck.ok()
		res.Attempted += l.attempted
		res.Failed += l.failed
		for n, v := range perLayer(workload, r, l) {
			res.Metrics[n] = metric{v, perLayerUnits[n]}
		}
	}
	for _, f := range ck.failures {
		fmt.Fprintln(log, "check failed:", f)
	}
	if dir, _ := filepath.Glob(filepath.Join(work, "store-*")); len(dir) > 0 {
		return nil, fmt.Errorf("store directories left behind: %v", dir)
	}
	return res, nil
}

// endToEnd maps each workload's user-facing path onto the end-to-end
// metrics every workload reports: throughput and latency of the path
// the workload's user waits on. That is a closed window (archived and
// offered to the subscriptions) for ingest and tiered_mixed, and a
// one-shot result for match. Events are too few per run for a steady
// tail; the traced run reports their latency per layer.
func endToEnd(workload string, r *e2e) map[string]float64 {
	m := map[string]float64{
		"setup_s":     median(r.setup),
		"peak_rss_mb": r.peakRSS,
	}
	lat := r.window
	m["throughput_per_s"] = ratio(float64(r.tuples), r.ingestT.Seconds())
	if workload == "match" {
		lat = r.match
		m["throughput_per_s"] = ratio(float64(r.queries), r.matchT.Seconds())
	}
	m["latency_p50_ms"] = quantile(lat, 0.5)
	m["latency_p90_ms"] = quantile(lat, 0.9)
	return m
}
