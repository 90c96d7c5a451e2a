package sp

import "npbgo/internal/team"

// Bands of the pentadiagonal coefficient arrays: band 0 couples cell
// i-2, band 1 cell i-1, band 2 is the diagonal, bands 3 and 4 couple
// cells i+1 and i+2 (the Fortran lhs(1..5,i)).

// dirParams carries the per-direction constants of the scalar solver.
type dirParams struct {
	dtt1, dtt2, c2dtt1 float64
	dmax               float64
	d2or3or4, d5, d1   float64 // dx2/dy3/dz4, d?5, d?1 of the eigenvalue bound
}

// fillEigenRows loads the line's convective velocity cv and spectral
// bound rho for cell l from scalar offset soff.
func (b *Benchmark) fillEigenRows(ls *lineScratch, l, soff int, p *dirParams, vel []float64) {
	c := &b.c
	ru1 := c.C3c4 * b.f.RhoI[soff]
	ls.cv[l] = vel[soff]
	r := p.d2or3or4 + c.Con43*ru1
	if v := p.d5 + c.C1c5*ru1; v > r {
		r = v
	}
	if v := p.dmax + ru1; v > r {
		r = v
	}
	if p.d1 > r {
		r = p.d1
	}
	ls.rho[l] = r
}

// buildLHS assembles the three pentadiagonal factors for one line of
// length n, given the already-filled cv/rho rows and the line's sound
// speeds at speed[sbase+l*sstride].
func (b *Benchmark) buildLHS(ls *lineScratch, n int, p *dirParams, speed []float64, sbase, sstride int) {
	// Identity boundary rows for all three factors (lhsinit).
	for _, i := range [2]int{0, n - 1} {
		for bd := 0; bd < 5; bd++ {
			*band(ls.lhs, bd, i) = 0
			*band(ls.lhsp, bd, i) = 0
			*band(ls.lhsm, bd, i) = 0
		}
		*band(ls.lhs, 2, i) = 1
		*band(ls.lhsp, 2, i) = 1
		*band(ls.lhsm, 2, i) = 1
	}

	for i := 1; i < n-1; i++ {
		*band(ls.lhs, 0, i) = 0
		*band(ls.lhs, 1, i) = -p.dtt2*ls.cv[i-1] - p.dtt1*ls.rho[i-1]
		*band(ls.lhs, 2, i) = 1.0 + p.c2dtt1*ls.rho[i]
		*band(ls.lhs, 3, i) = p.dtt2*ls.cv[i+1] - p.dtt1*ls.rho[i+1]
		*band(ls.lhs, 4, i) = 0
	}

	// Fourth-order dissipation contributions.
	i := 1
	*band(ls.lhs, 2, i) += b.comz5
	*band(ls.lhs, 3, i) -= b.comz4
	*band(ls.lhs, 4, i) += b.comz1
	*band(ls.lhs, 1, i+1) -= b.comz4
	*band(ls.lhs, 2, i+1) += b.comz6
	*band(ls.lhs, 3, i+1) -= b.comz4
	*band(ls.lhs, 4, i+1) += b.comz1
	for i = 3; i <= n-4; i++ {
		*band(ls.lhs, 0, i) += b.comz1
		*band(ls.lhs, 1, i) -= b.comz4
		*band(ls.lhs, 2, i) += b.comz6
		*band(ls.lhs, 3, i) -= b.comz4
		*band(ls.lhs, 4, i) += b.comz1
	}
	i = n - 3
	*band(ls.lhs, 0, i) += b.comz1
	*band(ls.lhs, 1, i) -= b.comz4
	*band(ls.lhs, 2, i) += b.comz6
	*band(ls.lhs, 3, i) -= b.comz4
	*band(ls.lhs, 0, i+1) += b.comz1
	*band(ls.lhs, 1, i+1) -= b.comz4
	*band(ls.lhs, 2, i+1) += b.comz5

	// Acoustic factors u+c and u-c.
	for i = 1; i < n-1; i++ {
		*band(ls.lhsp, 0, i) = *band(ls.lhs, 0, i)
		*band(ls.lhsp, 1, i) = *band(ls.lhs, 1, i) - p.dtt2*speed[sbase+(i-1)*sstride]
		*band(ls.lhsp, 2, i) = *band(ls.lhs, 2, i)
		*band(ls.lhsp, 3, i) = *band(ls.lhs, 3, i) + p.dtt2*speed[sbase+(i+1)*sstride]
		*band(ls.lhsp, 4, i) = *band(ls.lhs, 4, i)
		*band(ls.lhsm, 0, i) = *band(ls.lhs, 0, i)
		*band(ls.lhsm, 1, i) = *band(ls.lhs, 1, i) + p.dtt2*speed[sbase+(i-1)*sstride]
		*band(ls.lhsm, 2, i) = *band(ls.lhs, 2, i)
		*band(ls.lhsm, 3, i) = *band(ls.lhs, 3, i) - p.dtt2*speed[sbase+(i+1)*sstride]
		*band(ls.lhsm, 4, i) = *band(ls.lhs, 4, i)
	}
}

// solveFactor runs the scalar pentadiagonal Thomas algorithm on one
// factor's bands, transforming in place the components comps of the
// rhs 5-vectors at rhs[base+l*stride:].
func solveFactor(bands []float64, n int, comps []int, rhs []float64, base, stride int) {
	for i := 0; i <= n-3; i++ {
		i1, i2 := i+1, i+2
		fac1 := 1.0 / *band(bands, 2, i)
		*band(bands, 3, i) *= fac1
		*band(bands, 4, i) *= fac1
		ri := rhs[base+i*stride:]
		for _, m := range comps {
			ri[m] *= fac1
		}
		r1 := rhs[base+i1*stride:]
		b1 := *band(bands, 1, i1)
		*band(bands, 2, i1) -= b1 * *band(bands, 3, i)
		*band(bands, 3, i1) -= b1 * *band(bands, 4, i)
		for _, m := range comps {
			r1[m] -= b1 * ri[m]
		}
		r2 := rhs[base+i2*stride:]
		b0 := *band(bands, 0, i2)
		*band(bands, 1, i2) -= b0 * *band(bands, 3, i)
		*band(bands, 2, i2) -= b0 * *band(bands, 4, i)
		for _, m := range comps {
			r2[m] -= b0 * ri[m]
		}
	}
	// The last two rows.
	i := n - 2
	i1 := n - 1
	fac1 := 1.0 / *band(bands, 2, i)
	*band(bands, 3, i) *= fac1
	*band(bands, 4, i) *= fac1
	ri := rhs[base+i*stride:]
	for _, m := range comps {
		ri[m] *= fac1
	}
	r1 := rhs[base+i1*stride:]
	b1 := *band(bands, 1, i1)
	*band(bands, 2, i1) -= b1 * *band(bands, 3, i)
	*band(bands, 3, i1) -= b1 * *band(bands, 4, i)
	for _, m := range comps {
		r1[m] -= b1 * ri[m]
	}
	fac2 := 1.0 / *band(bands, 2, i1)
	for _, m := range comps {
		r1[m] *= fac2
	}
	// Back substitution.
	ri = rhs[base+(n-2)*stride:]
	r1 = rhs[base+(n-1)*stride:]
	for _, m := range comps {
		ri[m] -= *band(bands, 3, n-2) * r1[m]
	}
	for i := n - 3; i >= 0; i-- {
		r := rhs[base+i*stride:]
		rp1 := rhs[base+(i+1)*stride:]
		rp2 := rhs[base+(i+2)*stride:]
		for _, m := range comps {
			r[m] -= *band(bands, 3, i)*rp1[m] + *band(bands, 4, i)*rp2[m]
		}
	}
}

var (
	compsU = []int{0, 1, 2}
	compsP = []int{3}
	compsM = []int{4}
)

// solveDirectionLine factorizes and solves one grid line: convective
// factor on components 1-3, acoustic factors on components 4 and 5.
// The line's sound speeds live at speed[sbase+l*sstride] and its rhs
// 5-vectors at rhs[rbase+l*rstride:]; both sweeps are affine in l for
// every direction, so bases and strides replace accessor closures.
func (b *Benchmark) solveDirectionLine(ls *lineScratch, n int, p *dirParams,
	speed []float64, sbase, sstride int, rhs []float64, rbase, rstride int) {
	b.buildLHS(ls, n, p, speed, sbase, sstride)
	solveFactor(ls.lhs, n, compsU, rhs, rbase, rstride)
	solveFactor(ls.lhsp, n, compsP, rhs, rbase, rstride)
	solveFactor(ls.lhsm, n, compsM, rhs, rbase, rstride)
}

// buildBodies constructs every parallel-region body once. Each is a
// func(id int) handed straight to Team.Run; chunk bounds come from the
// team's loop iterator (honoring the configured schedule), per-worker
// scratch from the pools and the team from the tm staging field, so the
// ADI loop creates no closures. Every loop writes disjoint planes, so
// results are bit-identical under every schedule.
func (b *Benchmark) buildBodies() {
	n := b.n
	f := b.f
	b.pX = dirParams{dtt1: b.dttx1, dtt2: b.dttx2, c2dtt1: b.c2dttx1,
		dmax: b.dxmax, d2or3or4: b.c.Dx2, d5: b.c.Dx5, d1: b.c.Dx1}
	b.pY = dirParams{dtt1: b.dtty1, dtt2: b.dtty2, c2dtt1: b.c2dtty1,
		dmax: b.dymax, d2or3or4: b.c.Dy3, d5: b.c.Dy5, d1: b.c.Dy1}
	b.pZ = dirParams{dtt1: b.dttz1, dtt2: b.dttz2, c2dtt1: b.c2dttz1,
		dmax: b.dzmax, d2or3or4: b.c.Dz4, d5: b.c.Dz5, d1: b.c.Dz1}
	b.buildTransformBodies()

	//npblint:hot xi-direction factor sweep, k planes chunked
	b.xBody = func(id int) {
		ls := b.scratch[id]
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 0; i < n; i++ {
						b.fillEigenRows(ls, i, f.SAt(i, j, k), &b.pX, f.Us)
					}
					b.solveDirectionLine(ls, n, &b.pX,
						f.Speed, f.SAt(0, j, k), 1,
						f.Rhs, f.FAt(0, 0, j, k), 5)
				}
			}
		}
	}

	//npblint:hot eta-direction factor sweep, k planes chunked
	b.yBody = func(id int) {
		ls := b.scratch[id]
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for i := 1; i < n-1; i++ {
					for j := 0; j < n; j++ {
						b.fillEigenRows(ls, j, f.SAt(i, j, k), &b.pY, f.Vs)
					}
					b.solveDirectionLine(ls, n, &b.pY,
						f.Speed, f.SAt(i, 0, k), n,
						f.Rhs, f.FAt(0, i, 0, k), 5*n)
				}
			}
		}
	}

	//npblint:hot zeta-direction factor sweep, j rows chunked
	b.zBody = func(id int) {
		ls := b.scratch[id]
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for j := it.Lo; j < it.Hi; j++ {
				for i := 1; i < n-1; i++ {
					for k := 0; k < n; k++ {
						b.fillEigenRows(ls, k, f.SAt(i, j, k), &b.pZ, f.Ws)
					}
					b.solveDirectionLine(ls, n, &b.pZ,
						f.Speed, f.SAt(i, j, 0), n*n,
						f.Rhs, f.FAt(0, i, j, 0), 5*n*n)
				}
			}
		}
	}
}

// xSolve runs the xi-direction factor sweep followed by ninvr.
func (b *Benchmark) xSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.xBody)
	b.ninvr(tm)
}

// ySolve runs the eta-direction factor sweep followed by pinvr.
func (b *Benchmark) ySolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.yBody)
	b.pinvr(tm)
}

// zSolve runs the zeta-direction factor sweep followed by tzetar.
func (b *Benchmark) zSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.zBody)
	b.tzetar(tm)
}
