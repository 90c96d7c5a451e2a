// Package cg implements the NPB CG kernel: a conjugate-gradient inverse
// power method estimating the smallest eigenvalue of a large sparse
// symmetric matrix with random pattern — the paper's representative of
// "unstructured" computation (irregular memory access through index
// vectors), which it contrasts with the structured-grid group.
//
// The paper's §5.2 spends most of its CG discussion on a scheduling
// anomaly: the JVM ran CG's lightly-loaded threads on only 1-2
// processors until each thread was given a large warmup load. The
// Warmup option reproduces that fix.
package cg

import (
	"fmt"
	"math"

	"npbgo/internal/fault"
	"npbgo/internal/kernel"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// params holds the per-class problem definition from cg.f.
type params struct {
	na     int
	nonzer int
	niter  int
	shift  float64
	zeta   float64 // official verification value
}

var classes = map[byte]params{
	'S': {1400, 7, 15, 10.0, 8.5971775078648},
	'W': {7000, 8, 15, 12.0, 10.362595087124},
	'A': {14000, 11, 15, 20.0, 17.130235054029},
	'B': {75000, 13, 75, 60.0, 22.712745482631},
	'C': {150000, 15, 75, 110.0, 28.973605592845},
}

const (
	rcond   = 0.1
	cgitmax = 25 // inner CG iterations per outer step
)

// Benchmark is a configured CG instance. The sparse matrix is generated
// by New so repeated runs time only the solver.
type Benchmark struct {
	kernel.Phases // t_conj_grad, t_norm

	Class   byte
	p       params
	threads int
	warmup  bool

	// Zeta and RNorm are the eigenvalue estimate and the residual norm
	// ||x - A z|| of the last timed step.
	Zeta, RNorm float64

	ballastBytes int
	ballast      [][]float64 // per-worker ballast, nil without WithBallast

	rowstr []int
	colidx []int
	a      []float64

	x, z, pv, q, r []float64

	// Steady-state machinery: the region bodies below are built once by
	// New and reused by every iteration, because For/ForBlock/ReduceSum
	// wrap their body in a fresh closure per call and a literal closure
	// capturing loop-variant scalars allocates per creation. The bodies
	// instead read the per-iteration scalars (alpha, beta, scaleInv) and
	// the current team from the Benchmark, keeping the timed loop free of
	// heap allocation (enforced by internal/allocgate).
	tm       *team.Team // team of the current Setup/Step
	alpha    float64    // CG step length, set each inner iteration
	beta     float64    // CG direction update, set each inner iteration
	scaleInv float64    // 1/||z|| for normalize
	dotA     []float64  // operands of the pending dot product
	dotB     []float64

	initBody    func(id int)
	spmvPQBody  func(id int)
	spmvZRBody  func(id int)
	axpyBody    func(id int)
	pUpdBody    func(id int)
	residBody   func(id int)
	scaleBody   func(id int)
	dotBody     func(id int)
	ballastBody func(id int)
}

// Option configures optional benchmark behaviour.
type Option func(*Benchmark)

// WithWarmup enables the per-thread initialization load of §5.2.
func WithWarmup() Option { return func(b *Benchmark) { b.warmup = true } }

// WithBallast reproduces the paper's other §5.2 experiment: "an
// artificial increase in the memory use ... also resulted in a drop of
// scalability". Each worker is given bytes of ballast that the timed
// loop streams through once per outer iteration, inflating the
// benchmark's working set without changing its arithmetic.
func WithBallast(bytes int) Option {
	return func(b *Benchmark) { b.ballastBytes = bytes }
}

// New builds the CG benchmark for a class and thread count, generating
// the sparse matrix (the untimed setup phase).
func New(class byte, threads int, opts ...Option) (*Benchmark, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("cg: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("cg: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, p: p, threads: threads}
	for _, o := range opts {
		o(b)
	}
	b.rowstr, b.colidx, b.a = makea(p.na, p.nonzer, rcond, p.shift)
	if b.ballastBytes > 0 {
		words := b.ballastBytes / 8
		if words < 1 {
			words = 1
		}
		b.ballast = make([][]float64, threads)
		for i := range b.ballast {
			b.ballast[i] = make([]float64, words)
		}
	}
	n := p.na
	b.x = make([]float64, n)
	b.z = make([]float64, n)
	b.pv = make([]float64, n)
	b.q = make([]float64, n)
	b.r = make([]float64, n)
	b.buildBodies()
	return b, nil
}

// buildBodies constructs every parallel-region body once. Each is a
// func(id int) handed straight to Team.Run; loop shares come from the
// team's schedule iterator inside the body and loop-variant scalars
// from Benchmark fields, so no closure is created in the timed loop.
// The reduction bodies iterate block-granularity chunks (ReduceBlocks)
// and store each chunk's partial under its block index, keeping
// PartialSum bit-identical to the static schedule whichever worker ran
// which block.
func (b *Benchmark) buildBodies() {
	n := b.p.na

	//npblint:hot vector init, constructed once and reused every conjGrad call
	b.initBody = func(id int) {
		x, z, p, q, r := b.x, b.z, b.pv, b.q, b.r
		for it := b.tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				q[i] = 0
				z[i] = 0
				r[i] = x[i]
				p[i] = x[i]
			}
		}
	}

	//npblint:hot sparse mat-vec q = A p, the kernel of every inner iteration
	b.spmvPQBody = func(id int) {
		rowstr, colidx, a := b.rowstr, b.colidx, b.a
		in, out := b.pv, b.q
		for it := b.tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				sum := 0.0
				for k := rowstr[i]; k < rowstr[i+1]; k++ {
					sum += a[k] * in[colidx[k]]
				}
				out[i] = sum
			}
		}
	}

	//npblint:hot sparse mat-vec r = A z for the residual norm
	b.spmvZRBody = func(id int) {
		rowstr, colidx, a := b.rowstr, b.colidx, b.a
		in, out := b.z, b.r
		for it := b.tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				sum := 0.0
				for k := rowstr[i]; k < rowstr[i+1]; k++ {
					sum += a[k] * in[colidx[k]]
				}
				out[i] = sum
			}
		}
	}

	//npblint:hot z/r update with the iteration's alpha read from the Benchmark
	b.axpyBody = func(id int) {
		alpha := b.alpha
		z, r, p, q := b.z, b.r, b.pv, b.q
		for it := b.tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				z[i] += alpha * p[i]
				r[i] -= alpha * q[i]
			}
		}
	}

	//npblint:hot search-direction update with the iteration's beta
	b.pUpdBody = func(id int) {
		beta := b.beta
		p, r := b.pv, b.r
		for it := b.tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				p[i] = r[i] + beta*p[i]
			}
		}
	}

	//npblint:hot partial sums of ||x - A z||^2 into the block-indexed slots
	b.residBody = func(id int) {
		tm := b.tm
		x, r := b.x, b.r
		for it := tm.ReduceBlocks(id, 0, n); it.Next(); {
			s := 0.0
			for i := it.Lo; i < it.Hi; i++ {
				d := x[i] - r[i]
				s += d * d
			}
			*tm.Partial(it.Chunk()) = s
		}
	}

	//npblint:hot x = z/||z|| with the norm's reciprocal read from the Benchmark
	b.scaleBody = func(id int) {
		inv := b.scaleInv
		x, z := b.x, b.z
		for it := b.tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				x[i] = inv * z[i]
			}
		}
	}

	//npblint:hot shared dot-product body over the operands staged in dotA/dotB
	b.dotBody = func(id int) {
		tm := b.tm
		u, v := b.dotA, b.dotB
		for it := tm.ReduceBlocks(id, 0, len(u)); it.Next(); {
			s := 0.0
			for i := it.Lo; i < it.Hi; i++ {
				s += u[i] * v[i]
			}
			*tm.Partial(it.Chunk()) = s
		}
	}

	//npblint:hot per-worker ballast streaming (no-op without WithBallast)
	b.ballastBody = func(id int) {
		bal := b.ballast[id]
		s := 0.0
		for i := range bal {
			s += bal[i]
			bal[i] = s * 0.5
		}
		*b.tm.Partial(id) = s
	}
}

// NNZ returns the number of stored matrix nonzeros.
func (b *Benchmark) NNZ() int { return b.rowstr[b.p.na] }

// Threads returns the team size CG was built for.
func (b *Benchmark) Threads() int { return b.threads }

// Setup gives the workers their §5.2 warm-up load when enabled, then
// runs one untimed feed-through iteration to touch all data and resets
// x, following cg.f.
func (b *Benchmark) Setup(tm *team.Team) {
	if b.warmup {
		tm.Warmup(5_000_000)
	}
	b.tm = tm
	for i := range b.x {
		b.x[i] = 1.0
	}
	b.conjGrad()
	b.normalize()
	for i := range b.x {
		b.x[i] = 1.0
	}
}

// Steps returns the number of timed outer iterations.
func (b *Benchmark) Steps() int { return b.p.niter }

// Step runs one timed outer iteration (conjGrad, the zeta update, and
// the normalization) on tm, whose Size must equal the thread count the
// Benchmark was built with, updating Zeta and RNorm. After the first
// call it performs no heap allocation (enforced by internal/allocgate).
func (b *Benchmark) Step(tm *team.Team, _ int) {
	b.tm = tm
	fault.Maybe("cg.iter")
	b.touchBallast()
	b.Begin("t_conj_grad")
	b.RNorm = b.conjGrad()
	b.End("t_conj_grad")
	norm1 := b.dot(b.x, b.z)
	b.Zeta = b.p.shift + 1.0/norm1
	b.Begin("t_norm")
	b.normalize()
	b.End("t_norm")
}

// Verify checks the final zeta against the class reference.
func (b *Benchmark) Verify(*team.Team) (*verify.Report, float64) {
	rep := &verify.Report{Tier: verify.TierOfficial}
	rep.AddTol("zeta", fault.CorruptFloat("cg.verify", b.Zeta), b.p.zeta, 1e-10)
	// Standard NPB CG flop estimate per outer iteration.
	nzf := float64(b.NNZ())
	naf := float64(b.p.na)
	return rep, float64(b.p.niter) * (2*float64(cgitmax)*(3+nzf+5*naf) + 3 + nzf + 8*naf + 5*naf)
}

// touchBallast streams every worker through its ballast once, evicting
// the benchmark's real working set from the caches (a no-op without
// WithBallast).
func (b *Benchmark) touchBallast() {
	if b.ballast == nil {
		return
	}
	b.tm.Run(b.ballastBody)
}

// normalize scales z to unit norm into x (end of each outer iteration).
func (b *Benchmark) normalize() {
	norm2 := b.dot(b.z, b.z)
	b.scaleInv = 1.0 / math.Sqrt(norm2)
	b.tm.Run(b.scaleBody)
}

// conjGrad runs cgitmax CG iterations for the system A z = x and returns
// the residual norm ||x - A z||, as cg.f's conj_grad.
func (b *Benchmark) conjGrad() float64 {
	tm := b.tm

	tm.Run(b.initBody)
	rho := b.dot(b.r, b.r)

	for cgit := 1; cgit <= cgitmax; cgit++ {
		tm.Run(b.spmvPQBody)
		d := b.dot(b.pv, b.q)
		b.alpha = rho / d
		tm.Run(b.axpyBody)
		rho0 := rho
		rho = b.dot(b.r, b.r)
		b.beta = rho / rho0
		tm.Run(b.pUpdBody)
	}

	// rnorm = ||x - A z||.
	tm.Run(b.spmvZRBody)
	tm.Run(b.residBody)
	return math.Sqrt(tm.PartialSum())
}

// dot is a team-parallel dot product with deterministic partial
// combination: operands are staged on the Benchmark for the prebuilt
// body, partials land in the team's reduction slots, and PartialSum
// combines them in worker order — the same arithmetic as
// Team.ReduceSum without its per-call closure.
func (b *Benchmark) dot(u, v []float64) float64 {
	b.dotA, b.dotB = u, v
	b.tm.Run(b.dotBody)
	return b.tm.PartialSum()
}
