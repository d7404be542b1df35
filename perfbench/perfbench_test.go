package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"streamsum"
)

// tinySizes shrinks every workload so the self-test runs in seconds.
func tinySizes() sizes {
	c := paperSizes()
	c.Win, c.Slide = 2000, 200
	c.SessionSlides, c.IngestSlides, c.SetupRepeats = 10, 20, 2
	c.HistoryWindows, c.PrefixWindows = 20, 20
	c.Rate, c.QPS, c.Subs = 4000, 10, 8
	c.TargetCells = 1 << 20
	c.StoreMaxMem, c.CacheBytes = 64<<10, 16<<10
	c.TracedSlides, c.TracedQueries = 10, 10
	c.CheckSlides, c.CheckQueries = 12, 3
	return c
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryMetricPrinted runs every workload at tiny sizes, untraced and
// traced, and checks that the last output line names exactly the metrics
// BENCHMARK.json lists, each with its unit. BENCHMARK.json lists a subset
// of the workloads the command runs.
func TestEveryMetricPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json lists workload %q, which the command does not run", w.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range bj.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			res, err := measure(tinySizes(), w, 7, 500*time.Millisecond, traced, t.TempDir(), &bytes.Buffer{})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w, traced, err)
			}
			if !got.Correct || got.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w, traced, got.Correct, got.Attempted)
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w, traced, name, m, unit)
				}
			}
			for name := range got.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w, traced, name)
				}
			}
		}
	}
}

// TestMatchCheckRejectsPerturbed checks that the brute-force match check
// accepts the engine's results and rejects a perturbed one.
func TestMatchCheckRejectsPerturbed(t *testing.T) {
	c := tinySizes()
	eng, err := streamsum.New(c.options(""))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, _, err := ingestSlides(eng, genSlides(c, 3, c.prefill()+c.HistoryWindows)); err != nil {
		t.Fatal(err)
	}
	snap := eng.PatternBase().Snapshot()
	var q oneShot
	for _, target := range idOrder(eng.PatternBase()) {
		got, _, err := eng.Match(streamsum.MatchOptions{Target: target, Threshold: c.Threshold, Limit: c.Limit})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) >= 2 {
			q = oneShot{target, got, snap}
			break
		}
	}
	if q.target == nil {
		t.Fatal("no query with two results in the tiny history")
	}
	ck := &checks{}
	ck.sampledMatches(c, []oneShot{q})
	if !ck.ok() {
		t.Fatalf("unperturbed result rejected: %v", ck.failures)
	}
	perturb := []func([]streamsum.Match){
		func(m []streamsum.Match) { m[0].Distance += 1e-9 },
		func(m []streamsum.Match) { m[0], m[1] = m[1], m[0] },
		func(m []streamsum.Match) { m[1].ID++ },
	}
	for i, p := range perturb {
		bad := append([]streamsum.Match(nil), q.got...)
		p(bad)
		ck := &checks{}
		ck.sampledMatches(c, []oneShot{{q.target, bad, snap}})
		if ck.ok() {
			t.Errorf("perturbation %d accepted", i)
		}
	}
	ck = &checks{}
	ck.sampledMatches(c, []oneShot{{q.target, q.got[:1], snap}})
	if ck.ok() {
		t.Error("truncated result accepted")
	}
}
