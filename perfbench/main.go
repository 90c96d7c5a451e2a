// Command perfbench is npbgo's suite benchmark. It runs verified NPB
// cells, each benchmark at 1 thread and then at 2 threads, in a closed
// loop for a fixed time, and prints the end-to-end metrics; with
// --trace 1 it instead runs every workload's cells with telemetry on,
// times each layer's public functions inside its own spans, and prints
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload fine.S --seed 1 --seconds 30 --trace 0
//
// See README.md beside this file for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"npbgo/internal/report"
)

// hardLimit cancels the cells that honour a context (CG, EP, FT, MG)
// before the 180 s a run may take.
const hardLimit = 165 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fine.S, compute.W or memory.A")
	seed := fs.Int64("seed", 1, "seed for the order of the benchmark pairs")
	seconds := fs.Int("seconds", 30, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run")
	out := fs.String("out", ".bench_build", "directory for the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fine.S|compute.W|memory.A, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	env, _ := json.Marshal(report.CollectEnv())
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d env %s\n", w.Name, *seed, *seconds, *traceFlag, env)
	steal := startSteal()
	refBefore := refMs(3)

	var r *runner
	var complete bool
	var vals map[string]float64
	defs := endToEnd
	if *traceFlag == 0 {
		r, complete, vals = untraced(ctx, w, *seed, time.Duration(*seconds)*time.Second, stdout)
	} else {
		var err error
		if r, complete, vals, err = traced(ctx, w, *seed, *out, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defs = perLayer()
	}
	ref, stealPct := median([]float64{refBefore, refMs(3)}), steal.pct()
	fmt.Fprintf(stdout, "host: steal %.2f%% ref_loop %.2f ms (not gated, not used to normalise)\n", stealPct, ref)
	if *traceFlag == 1 {
		vals["host.ref_ms"], vals["host.steal_pct"] = ref, stealPct
	}
	res, err := finish(r, complete, defs, vals, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// untraced is the end-to-end run: rounds of w's cells, telemetry off,
// for the budget.
func untraced(ctx context.Context, w workload, seed int64, budget time.Duration, stdout io.Writer) (*runner, bool, map[string]float64) {
	r := newRunner(nil)
	r.runWorkload(ctx, w, rand.New(rand.NewSource(seed)), budget, 1)
	s := r.summarize(w.Cells)
	printCells(r, w.Cells, stdout)
	return r, s.Complete, map[string]float64{"mops": s.Mops, "mops_t1": s.MopsT1, "timed_s": s.TimedS,
		"setup_s": s.SetupS, "peak_rss_mb": peakRSSMB()}
}

// traced is the per-layer run. It alternates untraced and traced
// rounds of w, so the tracing overhead on w is measured within one
// process, then runs every other workload's cells traced, and last
// times the layers' own public functions. The caller adds the host
// metrics, measured once the run is over.
func traced(ctx context.Context, w workload, seed int64, outDir string, stdout io.Writer) (*runner, bool, map[string]float64, error) {
	// An unmeasured warm-up round takes the process's first heap growth
	// and page faults; after it the untraced and the traced round swap
	// places every round, so neither side always runs first.
	warm, base := newRunner(nil), newRunner(nil)
	warm.runWorkload(ctx, w, rand.New(rand.NewSource(seed)), 0, 1)
	spans := newSpanLog()
	r := newRunner(spans)
	runners := [2]*runner{base, r}
	rngs := [2]*rand.Rand{rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))}
	for i := 0; i < w.TraceRounds; i++ {
		for j := 0; j < 2; j++ {
			k := (i + j) % 2
			runners[k].runWorkload(ctx, w, rngs[k], 0, 1)
		}
	}
	rng := rngs[1]
	for _, o := range workloads {
		if o.Name != w.Name {
			r.runWorkload(ctx, o, rng, 0, o.TraceRounds)
		}
	}
	debug.FreeOSMemory()
	vals := make(map[string]float64)
	cellLayerMetrics(r, vals)
	u, t := base.summarize(w.Cells), r.summarize(w.Cells)
	complete := u.Complete && t.Complete
	if complete {
		vals["trace.overhead_pct"] = 100 * (t.TimedS/u.TimedS - 1)
		fmt.Fprintf(stdout, "tracing overhead on %s: timed_s %+.2f%% mops %+.2f%% mops_t1 %+.2f%% setup_s %+.2f%%\n",
			w.Name, vals["trace.overhead_pct"], 100*(t.Mops/u.Mops-1), 100*(t.MopsT1/u.MopsT1-1),
			100*(t.SetupS/u.SetupS-1))
	}

	sp := spans.begin("L1.team", -1, -1)
	teamLayer(vals)
	spans.end(sp)
	sp = spans.begin("L0.kernels", -1, -1)
	if err := kernelLayer(vals); err != nil {
		r.fail(err.Error())
	}
	spans.end(sp)
	debug.FreeOSMemory()
	sp = spans.begin("mem.triad", -1, -1)
	triad(vals, stdout)
	spans.end(sp)
	debug.FreeOSMemory()

	if minSelf := spans.finish(); minSelf < 0 {
		r.fail(fmt.Sprintf("span self time %d ns < 0", minSelf))
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, false, nil, err
	}
	if err := spans.write(path); err != nil {
		return nil, false, nil, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans.spans), path)
	printFootprints(stdout)
	printTable(r, stdout)
	for _, o := range []*runner{warm, base} {
		r.attempted += o.attempted
		r.failed += o.failed
		r.notes = append(r.notes, o.notes...)
	}
	return r, complete, vals, nil
}

// finish prints the failures and builds the result line; a run is
// correct only when no cell failed, every cell has a figure and every
// declared metric has a value.
func finish(r *runner, complete bool, defs []metricDef, vals map[string]float64, stdout io.Writer) (result, error) {
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "FAILED: %s\n", n)
	}
	ms, err := collect(defs, vals)
	if err != nil && r.failed == 0 {
		return result{}, err
	}
	return result{Correct: r.failed == 0 && complete && err == nil, Attempted: r.attempted,
		Failed: r.failed, Metrics: ms}, nil
}

// printCells prints each key's figure and repeat count.
func printCells(r *runner, cs []cell, stdout io.Writer) {
	for _, c := range cs {
		for _, t := range threadCounts {
			x := r.recs[key{c, t}]
			if x == nil {
				continue
			}
			if timed, mops, ok := x.figure(); ok {
				lo, hi := x.Samples[0].Timed, x.Samples[0].Timed
				for _, s := range x.Samples {
					lo, hi = min(lo, s.Timed), max(hi, s.Timed)
				}
				fmt.Fprintf(stdout, "cell %s t%d: median %.4f s (%.4f-%.4f) %.1f Mop/s setup %.4f s over %d repeats\n",
					c, t, timed, lo.Seconds(), hi.Seconds(), mops, x.setup(), len(x.Samples))
			}
		}
	}
}
