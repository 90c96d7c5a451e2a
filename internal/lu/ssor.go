package lu

import (
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

// Lower/upper triangular block construction. LU's jacld/jacu write out
// by hand exactly the combinations BT assembles from the flux Jacobian F
// and viscous Jacobian N of each direction:
//
//	lower(dir, p) = -dt*t2*F(p) - dt*t1*N(p) - dt*t1*diag(d1..d5)
//	upper(dir, p) = +dt*t2*F(p) - dt*t1*N(p) - dt*t1*diag(d1..d5)
//	diag(p)       = I + 2dt*(tx1*Nx + ty1*Ny + tz1*Nz)(p)
//	                  + 2dt*diag(tx1*dxm + ty1*dym + tz1*dzm)
//
// evaluated at the neighbouring point p the block couples to.

// dirConsts returns (t1, t2, d[5]) for direction cv.
func (b *Benchmark) dirConsts(cv int) (t1, t2 float64, d [5]float64) {
	c := &b.c
	switch cv {
	case 1:
		return c.Tx1, c.Tx2, [5]float64{c.Dx1, c.Dx2, c.Dx3, c.Dx4, c.Dx5}
	case 2:
		return c.Ty1, c.Ty2, [5]float64{c.Dy1, c.Dy2, c.Dy3, c.Dy4, c.Dy5}
	default:
		return c.Tz1, c.Tz2, [5]float64{c.Dz1, c.Dz2, c.Dz3, c.Dz4, c.Dz5}
	}
}

// pointJacobians computes F and N for direction cv at grid offset off
// (offset of component 0), deriving the scalar helpers from u directly.
func (b *Benchmark) pointJacobians(ws *sweepScratch, off, cv int) {
	var uvec [5]float64
	copy(uvec[:], b.u[off:off+5])
	rhoI := 1.0 / uvec[0]
	sq := 0.5 * (uvec[1]*uvec[1] + uvec[2]*uvec[2] + uvec[3]*uvec[3]) * rhoI
	qs := sq * rhoI
	nscore.FluxViscJacobians(&b.c, &uvec, rhoI, qs, sq, cv, ws.fj, ws.nj)
}

// offDiagBlock fills dst with the lower (sign = -1) or upper (sign = +1)
// coupling block of direction cv evaluated at offset off.
func (b *Benchmark) offDiagBlock(ws *sweepScratch, dst []float64, off, cv int, sign float64) {
	dt := b.c.Dt
	t1, t2, d := b.dirConsts(cv)
	b.pointJacobians(ws, off, cv)
	for e := 0; e < 25; e++ {
		dst[e] = sign*dt*t2*ws.fj[e] - dt*t1*ws.nj[e]
	}
	for m := 0; m < 5; m++ {
		dst[m+5*m] -= dt * t1 * d[m]
	}
}

// diagBlock fills dst with the block-diagonal matrix at offset off.
func (b *Benchmark) diagBlock(ws *sweepScratch, dst []float64, off int) {
	c := &b.c
	dt := c.Dt
	for e := 0; e < 25; e++ {
		dst[e] = 0
	}
	for _, cv := range [3]int{1, 2, 3} {
		t1, _, _ := b.dirConsts(cv)
		b.pointJacobians(ws, off, cv)
		for e := 0; e < 25; e++ {
			dst[e] += 2.0 * dt * t1 * ws.nj[e]
		}
	}
	dd := [5][3]float64{
		{c.Dx1, c.Dy1, c.Dz1},
		{c.Dx2, c.Dy2, c.Dz2},
		{c.Dx3, c.Dy3, c.Dz3},
		{c.Dx4, c.Dy4, c.Dz4},
		{c.Dx5, c.Dy5, c.Dz5},
	}
	for m := 0; m < 5; m++ {
		dst[m+5*m] += 1.0 + 2.0*dt*(c.Tx1*dd[m][0]+c.Ty1*dd[m][1]+c.Tz1*dd[m][2])
	}
}

// solve5 solves the 5x5 system a*x = r in place (unpivoted Gaussian
// elimination, as blts/buts do; the blocks are diagonally dominant).
func solve5(a []float64, r *[5]float64) {
	for p := 0; p < 5; p++ {
		piv := 1.0 / a[p+5*p]
		for n := p + 1; n < 5; n++ {
			a[p+5*n] *= piv
		}
		r[p] *= piv
		for q := p + 1; q < 5; q++ {
			coeff := a[q+5*p]
			for n := p + 1; n < 5; n++ {
				a[q+5*n] -= coeff * a[p+5*n]
			}
			r[q] -= coeff * r[p]
		}
	}
	for p := 4; p >= 0; p-- {
		for n := p + 1; n < 5; n++ {
			r[p] -= a[p+5*n] * r[n]
		}
	}
}

// lowerRow performs the fused jacld+blts update for row j of plane k:
// for each interior i, apply the k-1, j-1 and i-1 couplings and invert
// the diagonal block.
func (b *Benchmark) lowerRow(ws *sweepScratch, j, k int) {
	for i := 1; i < b.n-1; i++ {
		b.lowerPoint(ws, i, j, k)
	}
}

// upperRow performs the fused jacu+buts update for row j of plane k,
// sweeping i downward.
func (b *Benchmark) upperRow(ws *sweepScratch, j, k int) {
	for i := b.n - 2; i >= 1; i-- {
		b.upperPoint(ws, i, j, k)
	}
}

// ensurePipe binds the benchmark to tm and (re)builds the cached
// plane pipeline when the team changes. The team-wired pipeline charges
// per-plane stalls to each worker's obs wait slot and trace timeline —
// the paper's LU scalability culprit, made visible per worker instead
// of folded into run time.
func (b *Benchmark) ensurePipe(tm *team.Team) {
	b.tm = tm
	if b.pipeOwner != tm {
		b.pipe = tm.NewPipeline(b.n)
		b.pipeOwner = tm
	}
}

// Step runs one timed SSOR istep — residual scaling, the pipelined (or
// hyperplane) triangular sweeps, the flow-variable update and the rhs
// recomputation — on tm, whose Size must equal the thread count the
// Benchmark was built with. The sweeps are pipelined over j-blocks:
// worker w may process plane k only after worker w-1 has finished
// plane k (and the reverse for the upper sweep) — the in-loop
// synchronization the paper blames for LU's scalability. After the
// first call the step performs no heap allocation (enforced by
// internal/allocgate).
func (b *Benchmark) Step(tm *team.Team, _ int) {
	b.ensurePipe(tm)
	b.Begin("scale+update")
	// Scale the residual by the pseudo-time step.
	tm.Run(b.scaleBody)
	b.End("scale+update")

	b.Begin("sweeps")
	if b.hyper {
		b.lowerSweepHyperplane(tm)
		b.upperSweepHyperplane(tm)
	} else {
		// Lower-triangular sweep, pipelined forward.
		tm.Run(b.lowerBody)
		b.pipe.Drain()

		// Upper-triangular sweep, pipelined backward.
		tm.Run(b.upperBody)
		b.pipe.Drain()
	}
	b.End("sweeps")

	b.Begin("scale+update")
	// Update the flow variables.
	tm.Run(b.updateBody)
	b.End("scale+update")

	b.Begin("rhs")
	b.rhs(tm)
	b.End("rhs")
}
