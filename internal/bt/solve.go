package bt

import (
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

// The three ADI sweeps share one implementation parameterized by
// direction: the flux Jacobian (fjac) and viscous Jacobian (njac) have
// the same shape in x, y and z with the convective velocity component
// swapped, and the block-tridiagonal assembly differs only in the
// dt*t?1 / dt*t?2 factors and the d?1..d?5 diffusion diagonals. This is
// exactly the symmetry the Fortran x_solve/y_solve/z_solve triplicates.

// dirSpec carries the per-direction parameters of the implicit solve.
type dirSpec struct {
	cv         int        // 0-based velocity component: 1 (u), 2 (v), 3 (w)
	tmp1, tmp2 float64    // dt*t1, dt*t2
	d          [5]float64 // diffusion diagonal Dx1..Dx5 / dy / dz
}

// buildJacobians fills ls.fjac/ls.njac for cell l of a line from the
// state at flat offsets (uoff = conserved variables, soff = scalars),
// delegating to the shared nscore Jacobian builder.
func (b *Benchmark) buildJacobians(ls *lineScratch, l int, uoff, soff int, cv int) {
	uvec := [5]float64{b.f.U[uoff], b.f.U[uoff+1], b.f.U[uoff+2], b.f.U[uoff+3], b.f.U[uoff+4]}
	nscore.FluxViscJacobians(&b.c, &uvec, b.f.RhoI[soff], b.f.Qs[soff], b.f.Square[soff],
		cv, blk(ls.fjac, l), blk(ls.njac, l))
}

// assembleLHS builds the aa/bb/cc block diagonals for the interior cells
// of a line of length isize+1, as the lhs section of x_solve.
func (b *Benchmark) assembleLHS(ls *lineScratch, isize int, ds *dirSpec) {
	ls.lhsinit(isize)
	t1, t2 := ds.tmp1, ds.tmp2
	for l := 1; l <= isize-1; l++ {
		am := blk(ls.aa, l)
		bm := blk(ls.bb, l)
		cm := blk(ls.cc, l)
		fm1 := blk(ls.fjac, l-1)
		fp1 := blk(ls.fjac, l+1)
		nm1 := blk(ls.njac, l-1)
		nc := blk(ls.njac, l)
		np1 := blk(ls.njac, l+1)
		for n := 0; n < 5; n++ {
			for m := 0; m < 5; m++ {
				e := m + 5*n
				am[e] = -t2*fm1[e] - t1*nm1[e]
				bm[e] = t1 * 2.0 * nc[e]
				cm[e] = t2*fp1[e] - t1*np1[e]
			}
		}
		for m := 0; m < 5; m++ {
			e := m + 5*m
			am[e] -= t1 * ds.d[m]
			bm[e] += 1.0 + t1*2.0*ds.d[m]
			cm[e] -= t1 * ds.d[m]
		}
	}
}

// solveLine runs the block Thomas elimination over one line whose rhs
// 5-vectors live at rhs[base+l*stride:]. The m-fastest layout makes
// every sweep direction affine in l, so a base and stride replace the
// per-line accessor closure the Fortran arrays never needed either.
func (b *Benchmark) solveLine(ls *lineScratch, isize int, rhs []float64, base, stride int) {
	binvcrhs(blk(ls.bb, 0), blk(ls.cc, 0), rhs[base:])
	for l := 1; l <= isize-1; l++ {
		matvecSub(blk(ls.aa, l), rhs[base+(l-1)*stride:], rhs[base+l*stride:])
		matmulSub(blk(ls.aa, l), blk(ls.cc, l-1), blk(ls.bb, l))
		binvcrhs(blk(ls.bb, l), blk(ls.cc, l), rhs[base+l*stride:])
	}
	matvecSub(blk(ls.aa, isize), rhs[base+(isize-1)*stride:], rhs[base+isize*stride:])
	matmulSub(blk(ls.aa, isize), blk(ls.cc, isize-1), blk(ls.bb, isize))
	binvrhs(blk(ls.bb, isize), rhs[base+isize*stride:])
	for l := isize - 1; l >= 0; l-- {
		r := rhs[base+l*stride:]
		rn := rhs[base+(l+1)*stride:]
		cm := blk(ls.cc, l)
		for m := 0; m < 5; m++ {
			r[m] -= cm[m+0]*rn[0] + cm[m+5]*rn[1] + cm[m+10]*rn[2] +
				cm[m+15]*rn[3] + cm[m+20]*rn[4]
		}
	}
}

// buildBodies constructs the three solve-region bodies once. Each is a
// func(id int) handed straight to Team.Run; chunk bounds come from the
// team's loop iterator (honoring the configured schedule), per-worker
// scratch from the pools and the team from the tm staging field, so the
// ADI loop creates no closures. Every loop writes disjoint planes, so
// results are bit-identical under every schedule.
func (b *Benchmark) buildBodies() {
	n := b.n
	b.dsX = dirSpec{cv: 1, tmp1: b.c.Dt * b.c.Tx1, tmp2: b.c.Dt * b.c.Tx2,
		d: [5]float64{b.c.Dx1, b.c.Dx2, b.c.Dx3, b.c.Dx4, b.c.Dx5}}
	b.dsY = dirSpec{cv: 2, tmp1: b.c.Dt * b.c.Ty1, tmp2: b.c.Dt * b.c.Ty2,
		d: [5]float64{b.c.Dy1, b.c.Dy2, b.c.Dy3, b.c.Dy4, b.c.Dy5}}
	b.dsZ = dirSpec{cv: 3, tmp1: b.c.Dt * b.c.Tz1, tmp2: b.c.Dt * b.c.Tz2,
		d: [5]float64{b.c.Dz1, b.c.Dz2, b.c.Dz3, b.c.Dz4, b.c.Dz5}}

	//npblint:hot xi-line implicit solves, k planes chunked
	b.xBody = func(id int) {
		isize := n - 1
		ls := b.scratch[id]
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 0; i <= isize; i++ {
						b.buildJacobians(ls, i, b.f.UAt(0, i, j, k), b.f.SAt(i, j, k), b.dsX.cv)
					}
					b.assembleLHS(ls, isize, &b.dsX)
					b.solveLine(ls, isize, b.f.Rhs, b.f.FAt(0, 0, j, k), 5)
				}
			}
		}
	}

	//npblint:hot eta-line implicit solves, k planes chunked
	b.yBody = func(id int) {
		jsize := n - 1
		ls := b.scratch[id]
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for i := 1; i < n-1; i++ {
					for j := 0; j <= jsize; j++ {
						b.buildJacobians(ls, j, b.f.UAt(0, i, j, k), b.f.SAt(i, j, k), b.dsY.cv)
					}
					b.assembleLHS(ls, jsize, &b.dsY)
					b.solveLine(ls, jsize, b.f.Rhs, b.f.FAt(0, i, 0, k), 5*n)
				}
			}
		}
	}

	//npblint:hot zeta-line implicit solves, j rows chunked
	b.zBody = func(id int) {
		ksize := n - 1
		ls := b.scratch[id]
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for j := it.Lo; j < it.Hi; j++ {
				for i := 1; i < n-1; i++ {
					for k := 0; k <= ksize; k++ {
						b.buildJacobians(ls, k, b.f.UAt(0, i, j, k), b.f.SAt(i, j, k), b.dsZ.cv)
					}
					b.assembleLHS(ls, ksize, &b.dsZ)
					b.solveLine(ls, ksize, b.f.Rhs, b.f.FAt(0, i, j, 0), 5*n*n)
				}
			}
		}
	}
}

// xSolve performs the implicit solves along every xi line, planes k
// split over the team.
func (b *Benchmark) xSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.xBody)
}

// ySolve performs the implicit solves along every eta line.
func (b *Benchmark) ySolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.yBody)
}

// zSolve performs the implicit solves along every zeta line, rows j
// split over the team.
func (b *Benchmark) zSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.zBody)
}

// Step advances one time step on tm, whose Size must equal the thread
// count the Benchmark was built with, bracketing each phase. Every
// region body is prebuilt, so the step performs no heap allocation
// (enforced at a zero budget by internal/allocgate).
func (b *Benchmark) Step(tm *team.Team, _ int) {
	b.Begin("rhs")
	b.f.ComputeRHS(&b.c, tm)
	b.End("rhs")
	b.Begin("xsolve")
	b.xSolve(tm)
	b.End("xsolve")
	b.Begin("ysolve")
	b.ySolve(tm)
	b.End("ysolve")
	b.Begin("zsolve")
	b.zSolve(tm)
	b.End("zsolve")
	b.Begin("add")
	b.f.Add(tm)
	b.End("add")
}
