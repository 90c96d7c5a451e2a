package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
)

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
	if g := geomean([]float64{5}); math.Abs(g-5) > 1e-12 {
		t.Errorf("geomean(5) = %v, want 5", g)
	}
	// A 10% gain on one of four cells moves the geomean by 1.1^(1/4).
	xs := []float64{100, 2000, 30, 400}
	g0 := geomean(xs)
	xs[2] *= 1.1
	if r := geomean(xs) / g0; math.Abs(r-math.Pow(1.1, 0.25)) > 1e-12 {
		t.Errorf("one-cell gain ratio %v, want %v", r, math.Pow(1.1, 0.25))
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v, want 0", g)
	}
}

func TestInRunRuleIsMedian(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	x := &record{Samples: []sample{
		{Timed: sec(3), Wall: sec(3.5), Mops: 100},
		{Timed: sec(1), Wall: sec(1.2), Mops: 300},
		{Timed: sec(2), Wall: sec(2.1), Mops: 150},
	}}
	timed, mops, ok := x.figure()
	if !ok || timed != 2 || mops != 150 {
		t.Errorf("figure = %v s, %v Mop/s, %v; want the medians 2 s, 150 Mop/s", timed, mops, ok)
	}
	if got := x.setup(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("setup = %v, want median untimed 0.2 s", got)
	}
	x.Samples = append(x.Samples, sample{Timed: sec(4), Wall: sec(5), Mops: 50})
	if timed, _, _ := x.figure(); timed != 2.5 {
		t.Errorf("even count: figure = %v s, want 2.5", timed)
	}
	if x.Samples[0].Timed != sec(3) {
		t.Error("figure reordered the samples")
	}
	if _, _, ok := (&record{}).figure(); ok {
		t.Error("a key without samples must have no figure")
	}
}

func TestRoundsPairThreadsUnderShuffle(t *testing.T) {
	w, _ := findWorkload("fine.S")
	orders := map[string]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 3; round++ {
			steps := roundSteps(w.Cells, rng.Perm(len(w.Cells)))
			if len(steps) != 2*len(w.Cells) {
				t.Fatalf("seed %d: %d steps, want %d", seed, len(steps), 2*len(w.Cells))
			}
			seen := map[cell]bool{}
			var order []string
			for i := 0; i < len(steps); i += 2 {
				a, b := steps[i], steps[i+1]
				if a.Cell != b.Cell || a.Threads != 1 || b.Threads != 2 {
					t.Fatalf("seed %d: steps %d-%d are %v, %v; want one cell at t1 then t2", seed, i, i+1, a, b)
				}
				if seen[a.Cell] {
					t.Fatalf("seed %d: %s twice in one round", seed, a.Cell)
				}
				seen[a.Cell] = true
				order = append(order, a.Cell.String())
			}
			orders[strings.Join(order, " ")] = true
		}
	}
	if len(orders) < 2 {
		t.Error("the seed never changed the order of the pairs")
	}
	a := roundSteps(w.Cells, rand.New(rand.NewSource(7)).Perm(len(w.Cells)))
	b := roundSteps(w.Cells, rand.New(rand.NewSource(7)).Perm(len(w.Cells)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed gave two orders")
		}
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		start, end int64
		kids       [][2]int64
		want       int64
	}{
		{0, 100, nil, 100},
		{0, 100, [][2]int64{{10, 30}, {60, 70}}, 70},
		{0, 100, [][2]int64{{20, 50}, {10, 30}}, 60}, // overlap counted once
		{0, 100, [][2]int64{{0, 100}}, 0},
		{10, 20, [][2]int64{{0, 15}, {18, 40}}, 3}, // clipped to the parent
	}
	for _, c := range cases {
		if got := selfTime(c.start, c.end, c.kids); got != c.want {
			t.Errorf("selfTime(%d, %d, %v) = %d, want %d", c.start, c.end, c.kids, got, c.want)
		}
	}

	l := newSpanLog()
	root := l.begin("cell", -1, 0)
	a := l.begin("New", root, 0)
	l.end(a)
	b := l.begin("RunContext", root, 0)
	time.Sleep(time.Millisecond)
	l.end(b)
	l.end(root)
	if min := l.finish(); min < 0 {
		t.Errorf("smallest self time %d < 0", min)
	}
	r := l.spans[root]
	if r.SelfNs > r.End-r.Start || l.spans[b].SelfNs != l.spans[b].End-l.spans[b].Start {
		t.Errorf("self times %+v inconsistent", l.spans)
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := l.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 3 {
		t.Errorf("wrote %d span lines, want 3", n)
	}
}

// TestMetricsMatchBenchmarkJSON pins the names, units and directions
// the program prints to the ones BENCHMARK.json declares; collect
// refuses to print anything else.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
	var gated []workload
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d gated ones", len(bj.Workloads), len(gated))
	}
	for i, w := range gated {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if names[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		names[d.Name] = true
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}

	vals := map[string]float64{"mops": 1, "mops_t1": 1, "timed_s": 1, "setup_s": 1, "peak_rss_mb": 1}
	if _, err := collect(endToEnd, vals); err != nil {
		t.Errorf("complete end-to-end set refused: %v", err)
	}
	vals["latency_ms"] = 1
	if _, err := collect(endToEnd, vals); err == nil || !strings.Contains(err.Error(), "latency_ms") {
		t.Errorf("undeclared metric accepted: %v", err)
	}
	delete(vals, "latency_ms")
	delete(vals, "mops")
	if _, err := collect(endToEnd, vals); err == nil || !strings.Contains(err.Error(), "mops") {
		t.Errorf("missing metric accepted: %v", err)
	}
}

// TestCorruptedCellCountsAsFailed corrupts CG's verification value on
// its first run: the benchmark must count that cell as failed, keep
// going, and report the run as incorrect.
func TestCorruptedCellCountsAsFailed(t *testing.T) {
	fault.Activate(1, fault.Rule{Site: "cg.verify", Kind: fault.KindCorrupt})
	defer fault.Reset()
	w := workload{Name: "test", Cells: cells('S', npbgo.CG, npbgo.IS)}
	r := newRunner(nil)
	r.runWorkload(context.Background(), w, rand.New(rand.NewSource(1)), 0, 1)
	if r.attempted != 4 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 4 and 1 (notes %q)", r.attempted, r.failed, r.notes)
	}
	if fault.Fired("cg.verify", fault.KindCorrupt) != 1 {
		t.Fatal("the corruption never fired")
	}
	for _, k := range []key{{cell{npbgo.CG, 'S'}, 2}, {cell{npbgo.IS, 'S'}, 1}, {cell{npbgo.IS, 'S'}, 2}} {
		if x := r.recs[k]; x == nil || len(x.Samples) != 1 {
			t.Errorf("%v: the run did not go on after the failed cell", k)
		}
	}
	s := r.summarize(w.Cells)
	if s.Complete {
		t.Error("a workload with a failed key was summarized as complete")
	}
	res, err := finish(r, s.Complete, endToEnd, map[string]float64{"mops": s.Mops, "mops_t1": s.MopsT1,
		"timed_s": s.TimedS, "setup_s": s.SetupS, "peak_rss_mb": 1}, &strings.Builder{})
	if err != nil || res.Correct || res.Failed != 1 || res.Attempted != 4 {
		t.Errorf("result %+v, %v; want incorrect with 1 of 4 failed", res, err)
	}
}

func TestChangedDetailCountsAsFailed(t *testing.T) {
	r := newRunner(nil)
	c := cell{npbgo.IS, 'S'}
	r.rec(key{c, 1}).Detail = "a different verification printout\n"
	r.runOne(context.Background(), c, 1)
	if r.failed != 1 || len(r.recs[key{c, 1}].Samples) != 0 {
		t.Errorf("failed %d, samples %d; a repeat whose printout changed must fail", r.failed, len(r.recs[key{c, 1}].Samples))
	}
	r.runOne(context.Background(), c, 2)
	r.runOne(context.Background(), c, 2)
	if x := r.recs[key{c, 2}]; r.failed != 1 || len(x.Samples) != 2 {
		t.Errorf("identical repeats: failed %d, samples %d; want 1 (earlier) and 2", r.failed, len(x.Samples))
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fine.S", "--seconds", "0"},
		{"--workload", "fine.S", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%q) printed a result", args)
		}
	}
}
