package main

import (
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"time"

	"npbgo"
	"npbgo/internal/ft"
	"npbgo/internal/grid"
	"npbgo/internal/mg"
	"npbgo/internal/nscore"
	"npbgo/internal/ops"
	"npbgo/internal/randdp"
	"npbgo/internal/team"
)

// cellLayerMetrics derives the per-cell L1-L3 metrics from a traced
// runner's records into vals.
func cellLayerMetrics(r *runner, vals map[string]float64) {
	for _, c := range allCells() {
		x1, x2 := r.recs[key{c, 1}], r.recs[key{c, 2}]
		if x1 == nil || x2 == nil {
			continue
		}
		t1, _, ok1 := x1.figure()
		t2, _, ok2 := x2.figure()
		if !ok1 || !ok2 {
			continue
		}
		p := c.String()
		vals["cell."+p+".t1.timed_s"] = t1
		vals["cell."+p+".t2.timed_s"] = t2
		vals["cell."+p+".t2.untimed_s"] = x2.setup()
		vals["new."+p+"_s"] = x2.New.Seconds()
		vals["team."+p+".speedup_t2"] = t1 / t2
		if o := x2.Last.Obs; o != nil {
			vals["team."+p+".regions"] = float64(o.Regions)
			var busy, wait time.Duration
			for i := range o.Busy {
				busy += o.Busy[i]
				wait += o.Wait[i]
			}
			share := 0.0
			if busy > 0 {
				share = float64(wait) / float64(busy)
			}
			vals["team."+p+".wait_share"] = share
		}
		for _, sel := range phases {
			if sel.Cell != c {
				continue
			}
			for _, ph := range x2.Last.Phases {
				for _, n := range sel.Names {
					if ph.Name == n {
						vals["phase."+p+"."+n+"_s"] = ph.Seconds
					}
				}
			}
		}
	}
}

// perOp runs fn(n) batches times and returns the median wall time per
// unit of n, in nanoseconds.
func perOp(batches, n int, fn func(n int)) float64 {
	ns := make([]float64, batches)
	for i := range ns {
		t0 := time.Now()
		fn(n)
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(ns)
}

var sink float64

// teamLayer times the L1 primitives through the team's public API:
// an empty region (fork/join) at 1 worker (the inline path) and at 2,
// a barrier, a block reduction and one pipeline stage at 2 workers.
func teamLayer(vals map[string]float64) {
	noop := func(int) {}
	for _, w := range []int{1, 2} {
		tm := team.New(w)
		vals[fmt.Sprintf("team.fork_join_ns.w%d", w)] = perOp(7, 20000, func(n int) {
			for i := 0; i < n; i++ {
				tm.Run(noop)
			}
		})
		tm.Close()
	}
	tm := team.New(2)
	defer tm.Close()
	const barriers = 20000
	vals["team.barrier_ns"] = perOp(7, barriers, func(n int) {
		tm.Run(func(id int) {
			for i := 0; i < n; i++ {
				tm.BarrierID(id)
			}
		})
	})
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64(i)
	}
	reduce := func(id int) {
		for it := tm.ReduceBlocks(id, 0, len(xs)); it.Next(); {
			s := 0.0
			for _, x := range xs[it.Lo:it.Hi] {
				s += x
			}
			*tm.Partial(it.Chunk()) = s
		}
	}
	vals["team.reduce_ns"] = perOp(7, 20000, func(n int) {
		for i := 0; i < n; i++ {
			tm.Run(reduce)
			sink += tm.PartialSum()
		}
	})
	const stages = 4096
	p := tm.NewPipeline(stages)
	vals["team.pipeline_ns"] = perOp(7, stages, func(n int) {
		tm.Run(func(id int) {
			for s := 0; s < n; s++ {
				p.Wait(id)
				p.Post(id)
			}
		})
		p.Drain()
	})
}

// kernelLayer times L0 kernels on one thread through their packages'
// public functions.
func kernelLayer(vals map[string]float64) error {
	// BT's class-W grid and time step.
	const n, dt = 24, 0.0008
	c := nscore.SetConstants(n, dt)
	f := nscore.NewField(n, false)
	var u [5]float64
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				nscore.ExactSolution(float64(i)*c.Dnxm1, float64(j)*c.Dnym1, float64(k)*c.Dnzm1, &u)
				for m := 0; m < 5; m++ {
					f.U[f.UAt(m, i, j, k)] = u[m]
				}
			}
		}
	}
	tm := team.New(1)
	vals["l0.compute_rhs_ms"] = perOp(9, 5, func(r int) {
		for i := 0; i < r; i++ {
			f.ComputeRHS(&c, tm)
		}
	}) / 1e6
	tm.Close()

	fjac, njac := make([]float64, 25), make([]float64, 25)
	nscore.ExactSolution(0.3, 0.5, 0.7, &u)
	rhoI := 1 / u[0]
	sq := 0.5 * (u[1]*u[1] + u[2]*u[2] + u[3]*u[3]) * rhoI
	vals["l0.flux_visc_jac_ns"] = perOp(7, 300000, func(r int) {
		for i := 0; i < r; i++ {
			nscore.FluxViscJacobians(&c, &u, rhoI, sq*rhoI, sq, 1+i%3, fjac, njac)
		}
		sink += fjac[6] + njac[6]
	})

	// FT's class-A grid, alternating forward and inverse transforms so
	// the values stay bounded.
	const fx, fy, fz = 256, 256, 128
	data := make([]complex128, fx*fy*fz)
	for i := range data {
		data[i] = complex(math.Sin(float64(i)), math.Cos(float64(i)))
	}
	dir := 1
	var ferr error
	vals["l0.transform3d_ms"] = perOp(5, 1, func(int) {
		if err := ft.Transform3D(dir, fx, fy, fz, data, 1); err != nil {
			ferr = err
		}
		dir = -dir
	}) / 1e6
	data = nil
	debug.FreeOSMemory()
	if ferr != nil {
		return fmt.Errorf("ft.Transform3D: %w", ferr)
	}

	// MG's class-A grid.
	const mgN = 256
	s, err := mg.NewSolver(mgN, 1)
	if err != nil {
		return fmt.Errorf("mg.NewSolver: %w", err)
	}
	rhs := make([]float64, mgN*mgN*mgN)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.001)
	}
	var merr error
	vals["l0.vcycle_ms"] = perOp(5, 1, func(int) {
		_, r, err := s.Solve(rhs, 1)
		sink += r
		if err != nil {
			merr = err
		}
	}) / 1e6
	if merr != nil {
		return fmt.Errorf("mg.Solver.Solve: %w", merr)
	}

	y := make([]float64, 1<<16)
	seed := 314159265.0
	vals["l0.vranlc_ns"] = perOp(9, len(y), func(r int) {
		randdp.Vranlc(r, &seed, 1220703125.0, y)
	})

	w := ops.NewWorkload(grid.Dim3{N1: 32, N2: 32, N3: 32})
	pts := 32 * 32 * 32
	for name, op := range map[string]func(){
		"assignment":   w.Assignment,
		"first_order":  w.FirstOrder,
		"second_order": w.SecondOrder,
		"matvec":       w.MatVec,
		"reduce_sum":   func() { sink += w.ReduceSum() },
	} {
		vals["l0.ops."+name+"_ns"] = perOp(9, 10, func(r int) {
			for i := 0; i < r; i++ {
				op()
			}
		}) / float64(pts)
	}
	return nil
}

// triad is a STREAM-style a = b + s*c over arrays of at least four
// times the last-level cache each, on a 2-worker team, best of 5. The
// bytes moved are computed as 24 per element (two loads, one store),
// not measured.
func triad(vals map[string]float64, out io.Writer) {
	llc := llcBytes()
	size := 4 * llc
	if size < 420<<20 {
		size = 420 << 20
	}
	n := int(size / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	tm := team.New(2)
	defer tm.Close()
	tm.Run(func(id int) {
		lo, hi := team.Block(0, n, 2, id)
		for i := lo; i < hi; i++ {
			b[i], c[i] = 1, 2
		}
	})
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		tm.Run(func(id int) {
			lo, hi := team.Block(0, n, 2, id)
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
		best = math.Min(best, time.Since(t0).Seconds())
	}
	sink += a[n-1]
	vals["mem.triad_gbs"] = 24 * float64(n) / best / 1e9
	fmt.Fprintf(out, "triad: 3 arrays of %.0f MiB each, LLC %.0f MiB; bytes moved computed as 24 per element\n",
		float64(size)/(1<<20), float64(llc)/(1<<20))
}

// printFootprints labels each memory.A cell's working set as the
// package's Footprint model computes it.
func printFootprints(out io.Writer) {
	w, _ := findWorkload("memory.A")
	for _, c := range w.Cells {
		for _, t := range threadCounts {
			b, err := npbgo.Config{Benchmark: c.Bench, Class: c.Class, Threads: t}.FootprintBytes()
			if err == nil {
				fmt.Fprintf(out, "footprint %s t%d: %.0f MiB (computed by %s.Footprint)\n",
					c, t, float64(b)/(1<<20), c.Bench)
			}
		}
	}
}

// printTable prints the paper-style table (cf. Tables 2-6) of the
// traced run: per cell, the t1 and t2 timed seconds, speedup and Mop/s.
func printTable(r *runner, out io.Writer) {
	fmt.Fprintf(out, "%-6s %10s %10s %8s %10s %10s\n", "cell", "t1_s", "t2_s", "speedup", "mops_t1", "mops_t2")
	for _, c := range allCells() {
		x1, x2 := r.recs[key{c, 1}], r.recs[key{c, 2}]
		if x1 == nil || x2 == nil {
			continue
		}
		t1, m1, ok1 := x1.figure()
		t2, m2, ok2 := x2.figure()
		if !ok1 || !ok2 {
			fmt.Fprintf(out, "%-6s %10s\n", c, "FAILED")
			continue
		}
		fmt.Fprintf(out, "%-6s %10.4f %10.4f %8.2f %10.1f %10.1f\n", c, t1, t2, t1/t2, m1, m2)
	}
}
