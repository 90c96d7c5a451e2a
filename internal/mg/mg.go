// Package mg implements the NPB MG kernel: a V-cycle multigrid solver
// for the 3-D scalar Poisson equation on a periodic cube, with a point
// source/sink right-hand side generated by zran3. MG belongs to the
// paper's structured-grid benchmark group; its stencils are exactly the
// filter operations measured by the basic-ops study.
package mg

import (
	"fmt"

	"npbgo/internal/kernel"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// params defines one problem class.
type params struct {
	nx    int     // interior points per side (power of two)
	lt    int     // number of levels: nx = 2^lt
	nit   int     // V-cycles in the timed section
	rnm2  float64 // official verification residual norm
	tier  verify.Tier
	coefC int // which smoother coefficient set (0: S/W/A set, 1: B/C set)
}

var classes = map[byte]params{
	'S': {32, 5, 4, 0.5307707005734e-04, verify.TierOfficial, 0},
	'W': {128, 7, 4, 0.6467329375339e-05, verify.TierOfficial, 0},
	'A': {256, 8, 4, 0.2433365309069e-05, verify.TierOfficial, 0},
	'B': {256, 8, 20, 0.1800564401355e-05, verify.TierOfficial, 1},
	'C': {512, 9, 20, 0.5706732285740e-06, verify.TierOfficial, 1},
}

// Benchmark is a configured MG instance with its grid hierarchy
// allocated (repeated runs reuse the storage).
type Benchmark struct {
	kernel.Phases // mg3P, resid

	Class   byte
	p       params
	threads int

	// RNm2 and RNmu are the final residual L2 and max norms, computed
	// by the last timed step.
	RNm2, RNmu float64

	lv   []level     // lv[k] for k = 1..lt
	u, r [][]float64 // per-level fields, index 1..lt
	v    []float64   // right-hand side at the finest level

	a, c [4]float64
	cy   *cycle // reusable stencil engine for the timed loop
}

// New configures MG for the given class and thread count and allocates
// the hierarchy.
func New(class byte, threads int) (*Benchmark, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("mg: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("mg: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, p: p, threads: threads}

	b.lv = make([]level, p.lt+1)
	b.u = make([][]float64, p.lt+1)
	b.r = make([][]float64, p.lt+1)
	for k := 1; k <= p.lt; k++ {
		n := (1 << k) + 2
		b.lv[k] = level{n, n, n}
		b.u[k] = make([]float64, b.lv[k].len())
		b.r[k] = make([]float64, b.lv[k].len())
	}
	b.v = make([]float64, b.lv[p.lt].len())

	b.a = [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
	if p.coefC == 0 {
		b.c = [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}
	} else {
		b.c = [4]float64{-3.0 / 17.0, 1.0 / 33.0, -1.0 / 61.0, 0.0}
	}
	b.cy = newCycle(threads, b.lv[p.lt].n1, b.a, b.c)
	return b, nil
}

// mg3P performs one V-cycle: restrict the residual to the coarsest
// level, solve there with one smoothing, then interpolate corrections
// back up with a post-smoothing at each level, as mg.f's mg3P.
func (b *Benchmark) mg3P(tm *team.Team) {
	lt := b.p.lt
	const lb = 1
	for k := lt; k >= lb+1; k-- {
		b.cy.rprj3(tm, b.r[k], b.lv[k], b.r[k-1], b.lv[k-1])
	}
	zero3(b.u[lb])
	b.cy.psinv(tm, b.r[lb], b.u[lb], b.lv[lb])
	for k := lb + 1; k <= lt-1; k++ {
		zero3(b.u[k])
		b.cy.interp(tm, b.u[k-1], b.lv[k-1], b.u[k], b.lv[k])
		b.cy.resid(tm, b.r[k], b.u[k], b.r[k], b.lv[k])
		b.cy.psinv(tm, b.r[k], b.u[k], b.lv[k])
	}
	b.cy.interp(tm, b.u[lt-1], b.lv[lt-1], b.u[lt], b.lv[lt])
	b.cy.resid(tm, b.r[lt], b.u[lt], b.v, b.lv[lt])
	b.cy.psinv(tm, b.r[lt], b.u[lt], b.lv[lt])
}

// Threads returns the team size MG was built for.
func (b *Benchmark) Threads() int { return b.threads }

// Setup generates the zran3 right-hand side, runs one untimed
// feed-through cycle and re-initializes, following mg.f.
func (b *Benchmark) Setup(tm *team.Team) {
	lt := b.p.lt
	fin := b.lv[lt]
	zero3(b.u[lt])
	zran3(b.v, fin, b.p.nx, b.p.nx)
	b.cy.resid(tm, b.r[lt], b.u[lt], b.v, fin)
	b.mg3P(tm)
	b.cy.resid(tm, b.r[lt], b.u[lt], b.v, fin)
	zero3(b.u[lt])
	zran3(b.v, fin, b.p.nx, b.p.nx)
}

// Steps returns the number of timed V-cycles.
func (b *Benchmark) Steps() int { return b.p.nit }

// Step runs one timed V-cycle plus the trailing residual update on tm,
// whose Size must equal the thread count the Benchmark was built with.
// The first step also computes the initial residual and the last one
// the final norms, which mg.f times too. Every other step performs no
// heap allocation (enforced by internal/allocgate).
func (b *Benchmark) Step(tm *team.Team, i int) {
	lt := b.p.lt
	fin := b.lv[lt]
	if i == 0 {
		b.Begin("resid")
		b.cy.resid(tm, b.r[lt], b.u[lt], b.v, fin)
		b.End("resid")
	}
	b.Begin("mg3P")
	b.mg3P(tm)
	b.End("mg3P")
	b.Begin("resid")
	b.cy.resid(tm, b.r[lt], b.u[lt], b.v, fin)
	b.End("resid")
	if i == b.p.nit-1 {
		nx := float64(b.p.nx)
		b.RNm2, b.RNmu = b.cy.norm2u3(tm, b.r[lt], fin, nx*nx*nx)
	}
}

// Verify checks the final residual norm against the class reference.
func (b *Benchmark) Verify(*team.Team) (*verify.Report, float64) {
	rep := &verify.Report{Tier: b.p.tier}
	rep.Add("rnm2", b.RNm2, b.p.rnm2)
	// Standard NPB MG flop estimate: 58 flops per fine-grid point per
	// iteration (the usual figure quoted for the V-cycle plus resid).
	nx := float64(b.p.nx)
	return rep, 58.0 * float64(b.p.nit) * (nx * nx * nx)
}
