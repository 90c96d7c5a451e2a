package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"npbgo"
	"npbgo/internal/bt"
	"npbgo/internal/cg"
	"npbgo/internal/ep"
	"npbgo/internal/ft"
	"npbgo/internal/is"
	"npbgo/internal/lu"
	"npbgo/internal/mg"
	"npbgo/internal/sp"
)

// cell is one benchmark at one class; it always runs as a pair, at 1
// thread and then at 2 threads.
type cell struct {
	Bench npbgo.Benchmark
	Class byte
}

func (c cell) String() string { return fmt.Sprintf("%s.%c", c.Bench, c.Class) }

// threadCounts are the two team sizes of every pair: the serial column
// of the paper's tables (regions run inline) and the whole 2-CPU host.
var threadCounts = [2]int{1, 2}

// workload is a set of cells run in a closed loop by one client: one
// cell at a time, the next only after the previous one completes.
type workload struct {
	Name  string
	Why   string
	Cells []cell
	// TraceRounds is how many rounds of the cells the traced run makes;
	// class-S cells take milliseconds, so one round would be all noise.
	TraceRounds int
	// Gated workloads are the ones BENCHMARK.json lists. memory.A is
	// not: in one of three steadiness sets its run-to-run spread broke
	// the widest bound a metric may have (README.md), so only the traced
	// run and explicit --workload memory.A runs measure it.
	Gated bool
}

func cells(class byte, bs ...npbgo.Benchmark) []cell {
	out := make([]cell, len(bs))
	for i, b := range bs {
		out[i] = cell{b, class}
	}
	return out
}

// workloads stress different layers; README.md records the measurements
// behind each choice, and why LU.W, SP.W, FT.A and MG.A are in none.
var workloads = []workload{
	{"fine.S", "class-S cells of 1-170 ms: team fork/join, barriers, pipelines and per-step driver work dominate",
		cells('S', npbgo.BT, npbgo.SP, npbgo.LU, npbgo.FT, npbgo.MG, npbgo.CG, npbgo.IS), 5, true},
	{"compute.W", "class-W BT and EP: cache-resident compute kernels dominate, team and set-up work is small",
		cells('W', npbgo.BT, npbgo.EP), 1, true},
	{"memory.A", "class-A CG and IS: 70-78 MiB working sets far beyond L2, set-up is more than half of wall time",
		cells('A', npbgo.CG, npbgo.IS), 2, false},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// step is one cell run in a round's order.
type step struct {
	Cell    cell
	Threads int
}

// roundSteps orders one round: the pairs in the permutation's order,
// each pair at 1 thread immediately followed by 2 threads.
func roundSteps(cs []cell, perm []int) []step {
	out := make([]step, 0, 2*len(perm))
	for _, i := range perm {
		for _, t := range threadCounts {
			out = append(out, step{cs[i], t})
		}
	}
	return out
}

// key names one cell at one thread count.
type key struct {
	Cell    cell
	Threads int
}

// sample is one verified run of a cell.
type sample struct {
	Timed time.Duration // the benchmark's timed section
	Wall  time.Duration // the whole RunContext call
	Mops  float64
}

// record collects every run of one key.
type record struct {
	Samples []sample
	Detail  string        // verification printout of the first repeat
	Last    npbgo.Result  // last verified result (Obs and Phases when traced)
	New     time.Duration // separately timed <pkg>.New, traced t2 runs only
}

// runner executes cells and keeps their outcomes. With a span log it
// is the traced runner: cells run with Obs and Profile on, spans wrap
// each call into the program, and each t2 cell's constructor is timed.
type runner struct {
	spans     *spanLog
	recs      map[key]*record
	attempted int
	failed    int
	notes     []string
	nextCell  int
}

func newRunner(spans *spanLog) *runner {
	return &runner{spans: spans, recs: make(map[key]*record)}
}

func (r *runner) rec(k key) *record {
	x := r.recs[k]
	if x == nil {
		x = &record{}
		r.recs[k] = x
	}
	return x
}

// runWorkload makes rounds of w's cells, each round in an order drawn
// from rng, while another round of the last one's length would end no
// more than half a round past the budget, with at least minRounds
// rounds.
func (r *runner) runWorkload(ctx context.Context, w workload, rng *rand.Rand, budget time.Duration, minRounds int) {
	start := time.Now()
	for round := 1; ; round++ {
		rs := time.Now()
		for _, s := range roundSteps(w.Cells, rng.Perm(len(w.Cells))) {
			r.runOne(ctx, s.Cell, s.Threads)
		}
		if ctx.Err() != nil || (round >= minRounds && time.Since(start)+time.Since(rs)/2 > budget) {
			return
		}
	}
}

// runOne runs one cell and checks it: it must return no error, pass
// NPB verification at the official tier, and print the same
// verification text as the key's first repeat. A failure is counted
// and noted, and the run goes on.
func (r *runner) runOne(ctx context.Context, c cell, threads int) {
	debug.FreeOSMemory() // collect the previous cell outside any timed interval
	k := key{c, threads}
	x := r.rec(k)
	id := r.nextCell
	r.nextCell++
	cs := r.spans.begin(fmt.Sprintf("cell.%s.t%d", c, threads), -1, id)
	defer r.spans.end(cs)
	if r.spans != nil && threads == 2 && x.New == 0 {
		ns := r.spans.begin("L2."+string(c.Bench)+".New", cs, id)
		t0 := time.Now()
		err := newBench(c)
		x.New = time.Since(t0)
		r.spans.end(ns)
		if err != nil {
			r.fail(fmt.Sprintf("%s.New: %v", c.Bench, err))
		}
		debug.FreeOSMemory()
	}
	traced := r.spans != nil
	rs := r.spans.begin("L3.npbgo.RunContext", cs, id)
	t0 := time.Now()
	res, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: c.Bench, Class: c.Class,
		Threads: threads, Obs: traced, Profile: traced})
	wall := time.Since(t0)
	r.spans.end(rs)
	r.attempted++
	switch {
	case err != nil:
		r.fail(err.Error())
	case !res.Verified || res.Tier != "official":
		r.fail(fmt.Sprintf("%s t%d: not verified at the official tier (tier %s)", c, threads, res.Tier))
	case x.Detail != "" && res.Detail != x.Detail:
		r.fail(fmt.Sprintf("%s t%d: verification printout differs from the first repeat", c, threads))
	default:
		x.Detail = res.Detail
		x.Last = res
		x.Samples = append(x.Samples, sample{res.Elapsed, wall, res.Mops})
	}
}

func (r *runner) fail(msg string) {
	r.failed++
	r.notes = append(r.notes, msg)
}

// newBench constructs and discards one instance of c's benchmark at 2
// threads, as npbgo.RunContext would, so the caller can time the
// constructor alone.
func newBench(c cell) error {
	var err error
	switch c.Bench {
	case npbgo.BT:
		_, err = bt.New(c.Class, 2)
	case npbgo.SP:
		_, err = sp.New(c.Class, 2)
	case npbgo.LU:
		_, err = lu.New(c.Class, 2)
	case npbgo.FT:
		_, err = ft.New(c.Class, 2)
	case npbgo.MG:
		_, err = mg.New(c.Class, 2)
	case npbgo.CG:
		_, err = cg.New(c.Class, 2)
	case npbgo.IS:
		_, err = is.New(c.Class, 2)
	case npbgo.EP:
		_, err = ep.New(c.Class, 2)
	default:
		err = fmt.Errorf("unknown benchmark %q", c.Bench)
	}
	return err
}

// figure is the key's in-run summary: the median timed seconds and
// the median Mop/s over its verified repeats. Median, not best: over
// 30 s windows of class-S rounds the median's run-to-run spread was
// about half the best's (README.md, steadiness).
func (x *record) figure() (timed, mops float64, ok bool) {
	if len(x.Samples) == 0 {
		return 0, 0, false
	}
	ts, ms := make([]float64, len(x.Samples)), make([]float64, len(x.Samples))
	for i, s := range x.Samples {
		ts[i], ms[i] = s.Timed.Seconds(), s.Mops
	}
	return median(ts), median(ms), true
}

// setup is the median over repeats of the untimed part of the call:
// construction, initialisation, the untimed warm step, verification and
// team start and stop.
func (x *record) setup() float64 {
	us := make([]float64, len(x.Samples))
	for i, s := range x.Samples {
		us[i] = (s.Wall - s.Timed).Seconds()
	}
	return median(us)
}

// summary holds a workload's end-to-end figures.
type summary struct {
	Mops, MopsT1, TimedS, SetupS float64
	Complete                     bool // every key has a verified sample
}

// summarize combines the per-key figures of cs into the end-to-end
// metrics: Mop/s geomeans over the t2 and the t1 cells, and sums of
// timed and set-up seconds over all keys.
func (r *runner) summarize(cs []cell) summary {
	s := summary{Complete: true}
	var m1, m2 []float64
	for _, c := range cs {
		for _, t := range threadCounts {
			x := r.recs[key{c, t}]
			if x == nil {
				s.Complete = false
				continue
			}
			timed, mops, ok := x.figure()
			if !ok {
				s.Complete = false
				continue
			}
			s.TimedS += timed
			s.SetupS += x.setup()
			if t == 1 {
				m1 = append(m1, mops)
			} else {
				m2 = append(m2, mops)
			}
		}
	}
	s.Mops, s.MopsT1 = geomean(m2), geomean(m1)
	return s
}
