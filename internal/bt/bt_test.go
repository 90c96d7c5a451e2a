package bt

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"npbgo/internal/kernel"
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

func TestExactSolutionBoundaryValues(t *testing.T) {
	var d [5]float64
	nscore.ExactSolution(0, 0, 0, &d)
	// At the origin only the constant coefficients survive.
	want := [5]float64{2.0, 1.0, 2.0, 2.0, 5.0}
	for m := 0; m < 5; m++ {
		if d[m] != want[m] {
			t.Fatalf("exact(0,0,0)[%d] = %v, want %v", m, d[m], want[m])
		}
	}
}

func TestInitializeMatchesExactOnBoundaries(t *testing.T) {
	b, err := New('S', 1)
	if err != nil {
		t.Fatal(err)
	}
	b.f.Initialize(&b.c)
	var ue [5]float64
	n := b.n
	// Check one point on each face.
	checks := [][3]int{{0, 3, 4}, {n - 1, 3, 4}, {3, 0, 4}, {3, n - 1, 4}, {3, 4, 0}, {3, 4, n - 1}}
	for _, p := range checks {
		i, j, k := p[0], p[1], p[2]
		nscore.ExactSolution(float64(i)*b.c.Dnxm1, float64(j)*b.c.Dnym1, float64(k)*b.c.Dnzm1, &ue)
		off := b.f.UAt(0, i, j, k)
		for m := 0; m < 5; m++ {
			if b.f.U[off+m] != ue[m] {
				t.Fatalf("boundary (%d,%d,%d) component %d: %v != exact %v", i, j, k, m, b.f.U[off+m], ue[m])
			}
		}
	}
}

// TestForcingBalancesExactSolution is the key analytic check on the
// whole spatial discretization: when u IS the exact solution, the rhs
// (forcing + fluxes + dissipation) must vanish identically, because the
// forcing was constructed as exactly minus the operator applied to the
// exact solution.
func TestForcingBalancesExactSolution(t *testing.T) {
	b, err := New('S', 1)
	if err != nil {
		t.Fatal(err)
	}
	tm := team.New(1)
	defer tm.Close()
	// Set u to the exact solution everywhere.
	var ue [5]float64
	n := b.n
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				nscore.ExactSolution(float64(i)*b.c.Dnxm1, float64(j)*b.c.Dnym1, float64(k)*b.c.Dnzm1, &ue)
				off := b.f.UAt(0, i, j, k)
				for m := 0; m < 5; m++ {
					b.f.U[off+m] = ue[m]
				}
			}
		}
	}
	b.f.ExactRHS(&b.c)
	b.f.ComputeRHS(&b.c, tm)
	worst := 0.0
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				off := b.f.FAt(0, i, j, k)
				for m := 0; m < 5; m++ {
					if a := math.Abs(b.f.Rhs[off+m]); a > worst {
						worst = a
					}
				}
			}
		}
	}
	if worst > 1e-11 {
		t.Fatalf("rhs of exact solution not zero: max |rhs| = %v", worst)
	}
}

func TestBinvcrhsSolvesSystem(t *testing.T) {
	// After binvcrhs, c and r must equal B^-1*C and B^-1*r for the
	// original B. Verify by multiplying back.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		b0 := make([]float64, 25)
		c0 := make([]float64, 25)
		r0 := make([]float64, 5)
		for i := range b0 {
			b0[i] = rng.Float64() - 0.5
		}
		for d := 0; d < 5; d++ {
			b0[d+5*d] += 4.0 // diagonal dominance, as in BT's blocks
		}
		for i := range c0 {
			c0[i] = rng.Float64() - 0.5
		}
		for i := range r0 {
			r0[i] = rng.Float64() - 0.5
		}
		bw := append([]float64(nil), b0...)
		cw := append([]float64(nil), c0...)
		rw := append([]float64(nil), r0...)
		binvcrhs(bw, cw, rw)
		// Check B*cw == c0 and B*rw == r0.
		for n := 0; n < 5; n++ {
			for m := 0; m < 5; m++ {
				sum := 0.0
				for q := 0; q < 5; q++ {
					sum += b0[m+5*q] * cw[q+5*n]
				}
				if math.Abs(sum-c0[m+5*n]) > 1e-10 {
					t.Fatalf("trial %d: B*(B^-1 C) != C at (%d,%d): %v vs %v", trial, m, n, sum, c0[m+5*n])
				}
			}
		}
		for m := 0; m < 5; m++ {
			sum := 0.0
			for q := 0; q < 5; q++ {
				sum += b0[m+5*q] * rw[q]
			}
			if math.Abs(sum-r0[m]) > 1e-10 {
				t.Fatalf("trial %d: B*(B^-1 r) != r at %d", trial, m)
			}
		}
	}
}

func TestMatmulMatvecSub(t *testing.T) {
	a := make([]float64, 25)
	bb := make([]float64, 25)
	c := make([]float64, 25)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		bb[i] = float64(i%5) * 0.5
		c[i] = 1.0
	}
	cRef := append([]float64(nil), c...)
	matmulSub(a, bb, c)
	for n := 0; n < 5; n++ {
		for m := 0; m < 5; m++ {
			want := cRef[m+5*n]
			for q := 0; q < 5; q++ {
				want -= a[m+5*q] * bb[q+5*n]
			}
			if math.Abs(c[m+5*n]-want) > 1e-14 {
				t.Fatalf("matmulSub (%d,%d): %v vs %v", m, n, c[m+5*n], want)
			}
		}
	}
	r1 := []float64{1, 2, 3, 4, 5}
	r2 := []float64{5, 4, 3, 2, 1}
	r2Ref := append([]float64(nil), r2...)
	matvecSub(a, r1, r2)
	for m := 0; m < 5; m++ {
		want := r2Ref[m]
		for q := 0; q < 5; q++ {
			want -= a[m+5*q] * r1[q]
		}
		if math.Abs(r2[m]-want) > 1e-14 {
			t.Fatalf("matvecSub %d: %v vs %v", m, r2[m], want)
		}
	}
}

// TestSolveLineAgainstDenseSolve checks the block Thomas algorithm on a
// random diagonally dominant block-tridiagonal system by comparing with
// a dense Gaussian elimination of the assembled system.
func TestSolveLineAgainstDenseSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cells = 6
		const dim = 5 * cells
		b, _ := New('S', 1)
		ls := newLineScratch(cells)
		// Random diagonally dominant blocks; first and last cells are
		// identity rows as lhsinit would make them.
		ls.lhsinit(cells - 1)
		for l := 1; l < cells-1; l++ {
			for e := 0; e < 25; e++ {
				blk(ls.aa, l)[e] = 0.2 * (rng.Float64() - 0.5)
				blk(ls.bb, l)[e] = 0.2 * (rng.Float64() - 0.5)
				blk(ls.cc, l)[e] = 0.2 * (rng.Float64() - 0.5)
			}
			for d := 0; d < 5; d++ {
				blk(ls.bb, l)[d+5*d] += 3.0
			}
		}
		rhs := make([]float64, dim)
		for i := range rhs {
			rhs[i] = rng.Float64() - 0.5
		}
		rhsCopy := append([]float64(nil), rhs...)

		// Assemble the dense system.
		dense := make([]float64, dim*dim)
		for l := 0; l < cells; l++ {
			for m := 0; m < 5; m++ {
				row := (5*l + m) * dim // dense is row-major, unlike the grid arrays
				for n := 0; n < 5; n++ {
					if l > 0 {
						dense[row+5*(l-1)+n] = blk(ls.aa, l)[m+5*n]
					}
					dense[row+5*l+n] = blk(ls.bb, l)[m+5*n]
					if l < cells-1 {
						dense[row+5*(l+1)+n] = blk(ls.cc, l)[m+5*n]
					}
				}
			}
		}
		want := denseSolve(dense, rhsCopy, dim)

		b.solveLine(ls, cells-1, rhs, 0, 5)
		for i := 0; i < dim; i++ {
			if math.Abs(rhs[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// denseSolve is a plain partial-pivoting Gaussian elimination used only
// as a test oracle.
func denseSolve(a []float64, b []float64, n int) []float64 {
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[p*n+col]) {
				p = r
			}
		}
		if p != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[p*n+c] = a[p*n+c], a[col*n+c]
			}
			x[col], x[p] = x[p], x[col]
		}
		piv := a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] / piv
			for c := col; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= a[r*n+c] * x[c]
		}
		x[r] = s / a[r*n+r]
	}
	return x
}

func TestErrorDecreasesOverSteps(t *testing.T) {
	// The ADI iteration drives u toward the steady solution of the
	// forced system; the solution error must decrease from its initial
	// value over the run.
	b, _ := New('S', 1)
	tm := team.New(1)
	defer tm.Close()
	b.f.Initialize(&b.c)
	b.f.ExactRHS(&b.c)
	e0 := b.f.ErrorNorm(&b.c)
	for s := 0; s < 20; s++ {
		b.Step(tm, 0)
	}
	e1 := b.f.ErrorNorm(&b.c)
	for m := 0; m < 5; m++ {
		if e1[m] >= e0[m] {
			t.Fatalf("component %d error grew: %v -> %v", m, e0[m], e1[m])
		}
	}
	// And the field must stay finite.
	for _, v := range b.f.U {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("field blew up")
		}
	}
}

func TestParallelMatchesSerialBitwise(t *testing.T) {
	bs, _ := New('S', 1)
	bp, _ := New('S', 3)
	tms := team.New(1)
	tmp := team.New(3)
	defer tms.Close()
	defer tmp.Close()
	bs.f.Initialize(&bs.c)
	bs.f.ExactRHS(&bs.c)
	bp.f.Initialize(&bp.c)
	bp.f.ExactRHS(&bp.c)
	for s := 0; s < 5; s++ {
		bs.Step(tms, 0)
		bp.Step(tmp, 0)
	}
	for i := range bs.f.U {
		if bs.f.U[i] != bp.f.U[i] {
			t.Fatalf("u[%d] differs between 1 and 3 threads: %v vs %v", i, bs.f.U[i], bp.f.U[i])
		}
	}
}

func TestClassSGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full class S run in -short mode")
	}
	b, _ := New('S', 1)
	res, err := kernel.Run(context.Background(), b, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify.Failed() {
		t.Fatalf("class S failed verification:\n%s", res.Verify)
	}
	for m := 0; m < 5; m++ {
		if math.IsNaN(b.XCR[m]) || math.IsNaN(b.XCE[m]) {
			t.Fatal("NaN in verification norms")
		}
	}
}

func TestUnknownClassRejected(t *testing.T) {
	if _, err := New('Q', 1); err == nil {
		t.Fatal("class Q accepted")
	}
	if _, err := New('S', 0); err == nil {
		t.Fatal("zero threads accepted")
	}
}
