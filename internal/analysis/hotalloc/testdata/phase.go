package hotallocfixture

import (
	"npbgo/internal/kernel"
	"npbgo/internal/team"
	"npbgo/internal/timer"
)

func timedPhase(ts *timer.Set, n int) []float64 {
	var out []float64
	ts.Start("iterate")
	out = make([]float64, n) // want `make allocates in timed phase "iterate"`
	ts.Stop("iterate")
	// After the Stop the block is cold again.
	buf := make([]float64, n)
	return append(out, buf...)
}

func guarded(ts *timer.Set, n int) []float64 {
	var out []float64
	// Start/Stop behind the usual nil guard still toggle the phase.
	if ts != nil {
		ts.Start("guarded")
	}
	out = make([]float64, n) // want `make allocates in timed phase "guarded"`
	if ts != nil {
		ts.Stop("guarded")
	}
	return out
}

func helper(ts *timer.Set, name string, n int) []float64 {
	// Non-literal phase names are ignored, mirroring timerpair: the
	// helper owns the pairing, the analyzer cannot see the region.
	ts.Start(name)
	out := make([]float64, n)
	ts.Stop(name)
	return out
}

func phaseRegion(ts *timer.Set, tm *team.Team, out []float64, n int) {
	ts.Start("sweep")
	tm.ForBlock(0, n, func(lo, hi int) { // want `function literal allocates a closure per execution of timed phase "sweep"`
		for i := lo; i < hi; i++ {
			out[i] = 0
		}
	})
	ts.Stop("sweep")
}

// bench embeds the driver's phase bracket, as every benchmark does.
type bench struct {
	kernel.Phases
}

func (b *bench) bracketed(n int) []float64 {
	b.Begin("rhs")
	out := make([]float64, n) // want `make allocates in timed phase "rhs"`
	b.End("rhs")
	// After the End the block is cold again.
	return append(out, make([]float64, n)...)
}
