// Package suite is the name→constructor table of the eight NPB
// benchmarks, shared by the public API and the allocation gate so both
// build every benchmark the same way. Each entry also carries the
// benchmark's working-set model, for admission control.
package suite

import (
	"fmt"

	"npbgo/internal/bt"
	"npbgo/internal/cg"
	"npbgo/internal/ep"
	"npbgo/internal/ft"
	"npbgo/internal/is"
	"npbgo/internal/kernel"
	"npbgo/internal/lu"
	"npbgo/internal/mg"
	"npbgo/internal/sp"
)

// Options are the behavioural variants a constructor honours; each is
// ignored by the benchmarks it does not apply to.
type Options struct {
	Warmup  bool // CG: the per-worker warm-up load of the paper's §5.2
	Buckets bool // IS: the bucketed (USE_BUCKETS) ranking
}

// entry is one benchmark's constructor and its working-set model.
type entry struct {
	new       func(class byte, threads int, o Options) (kernel.Benchmark, error)
	footprint func(class byte, threads int) (uint64, error)
}

var table = map[string]entry{
	"BT": {func(c byte, n int, _ Options) (kernel.Benchmark, error) { return bt.New(c, n) }, bt.Footprint},
	"SP": {func(c byte, n int, _ Options) (kernel.Benchmark, error) { return sp.New(c, n) }, sp.Footprint},
	"LU": {func(c byte, n int, _ Options) (kernel.Benchmark, error) { return lu.New(c, n) }, lu.Footprint},
	"FT": {func(c byte, n int, _ Options) (kernel.Benchmark, error) { return ft.New(c, n) }, ft.Footprint},
	"MG": {func(c byte, n int, _ Options) (kernel.Benchmark, error) { return mg.New(c, n) }, mg.Footprint},
	"EP": {func(c byte, n int, _ Options) (kernel.Benchmark, error) { return ep.New(c, n) }, ep.Footprint},
	"CG": {func(c byte, n int, o Options) (kernel.Benchmark, error) {
		if o.Warmup {
			return cg.New(c, n, cg.WithWarmup())
		}
		return cg.New(c, n)
	}, cg.Footprint},
	"IS": {func(c byte, n int, o Options) (kernel.Benchmark, error) {
		if o.Buckets {
			return is.New(c, n, is.WithBuckets())
		}
		return is.New(c, n)
	}, is.Footprint},
}

// New builds the named benchmark ("BT", "SP", "LU", "FT", "MG", "CG",
// "IS" or "EP") for a class and thread count.
func New(name string, class byte, threads int, o Options) (kernel.Benchmark, error) {
	e, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	b, err := e.new(class, threads, o)
	if err != nil {
		return nil, err // not b: a typed nil pointer would be a non-nil interface
	}
	return b, nil
}

// Footprint returns the named benchmark's estimate of the working-set
// bytes a run at class and threads allocates.
func Footprint(name string, class byte, threads int) (uint64, error) {
	e, ok := table[name]
	if !ok {
		return 0, fmt.Errorf("unknown benchmark %q", name)
	}
	return e.footprint(class, threads)
}
