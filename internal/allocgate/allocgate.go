// Package allocgate is the dynamic half of the suite's allocation
// discipline: it measures the steady-state heap allocations of every
// benchmark's timed Step and asserts them against the checked-in
// budgets in budgets.go. The static half is the hotalloc analyzer
// (internal/analysis/hotalloc), which proves by inspection that the
// hot region bodies contain no allocation sites; this package proves
// the same thing by measurement, catching what the analyzer cannot see
// (allocations inside callees, lazily built state, compiler-inserted
// escapes).
//
// Each gate builds a benchmark, runs a few warm-up iterations so every
// lazily constructed structure (cached pipelines, reused teams) exists,
// then measures allocations per Step with testing.AllocsPerRun. Field
// values are irrelevant to the measurement — allocation counts in
// these kernels do not depend on the data — so the gates run Step on
// freshly constructed (zero-valued) grids rather than reproducing each
// benchmark's untimed setup phase.
package allocgate

import (
	"fmt"
	"strings"
	"testing"

	"npbgo/internal/perfcount"
	"npbgo/internal/suite"
	"npbgo/internal/team"
)

// Threads is the team size every gate measures at. Two workers is the
// smallest size that exercises the parallel paths (closure hand-off to
// worker goroutines, pipelines, partial-sum reduction); n=1 short
// circuits them.
const Threads = 2

// Key identifies one gated configuration.
type Key struct {
	Bench string // "cg", "ep", "ft", "is", "is-buckets", "mg", "lu", "bt", "sp"
	Class byte   // 'S' or 'W'
}

func (k Key) String() string { return fmt.Sprintf("%s.%c", k.Bench, k.Class) }

// Measure builds benchmark k.Bench at class k.Class, warms its
// steady-state step with warm calls, then returns the average
// allocations per Step over runs measured steps (via
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 for the
// measurement).
func Measure(k Key, warm, runs int) (float64, error) {
	step, err := newStep(k)
	if err != nil {
		return 0, err
	}
	tm := team.New(Threads)
	defer tm.Close()
	for i := 0; i < warm; i++ {
		step(tm)
	}
	return testing.AllocsPerRun(runs, func() { step(tm) }), nil
}

// MeasureCounters measures the steady-state allocations of one sampled
// parallel region: a team with a software perf-event sampler attached
// (the same group-read path the hardware sets use) runs warm regions,
// then allocations per region are averaged over runs measurements. The
// budget is zero — RegionStart/RegionEnd must read into the groups'
// hoisted buffers, never the heap — so turning -counters on cannot
// perturb the allocation discipline it is meant to diagnose. Where perf
// events are unavailable the *perfcount.UnavailableError is returned
// for the caller to skip on.
func MeasureCounters(warm, runs int) (float64, error) {
	pc, err := perfcount.NewSoftware(Threads)
	if err != nil {
		return 0, err
	}
	tm := team.New(Threads, team.WithCounters(pc))
	defer func() {
		tm.Close()
		pc.Close()
	}()
	region := func() {
		tm.Run(func(id int) {})
	}
	for i := 0; i < warm; i++ {
		region()
	}
	return testing.AllocsPerRun(runs, region), nil
}

// newStep builds the benchmark behind k from the suite table and
// returns its steady-state step: step 1, which for every benchmark with
// more than one step is neither the first (FT's forward transform, MG's
// initial resid) nor the last (MG's final norms).
func newStep(k Key) (func(tm *team.Team), error) {
	name, o := strings.ToUpper(k.Bench), suite.Options{}
	if k.Bench == "is-buckets" {
		name, o.Buckets = "IS", true
	}
	b, err := suite.New(name, k.Class, Threads, o)
	if err != nil {
		return nil, fmt.Errorf("allocgate: %w", err)
	}
	step := min(1, b.Steps()-1)
	return func(tm *team.Team) { b.Step(tm, step) }, nil
}
