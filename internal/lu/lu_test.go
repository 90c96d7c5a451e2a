package lu

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/team"
)

// TestForcingBalancesExactSolution: with u set to the exact solution,
// rsd = R(u) - frct must vanish because frct = R(u_exact).
func TestForcingBalancesExactSolution(t *testing.T) {
	b, err := New('S', 1)
	if err != nil {
		t.Fatal(err)
	}
	tm := team.New(1)
	defer tm.Close()
	var ue [5]float64
	n := b.n
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				b.exactAt(i, j, k, &ue)
				off := b.at(i, j, k)
				for m := 0; m < 5; m++ {
					b.u[off+m] = ue[m]
				}
			}
		}
	}
	b.erhs(tm)
	b.rhs(tm)
	worst := 0.0
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				off := b.at(i, j, k)
				for m := 0; m < 5; m++ {
					if a := math.Abs(b.rsd[off+m]); a > worst {
						worst = a
					}
				}
			}
		}
	}
	if worst > 1e-11 {
		t.Fatalf("rsd of exact solution not zero: max = %v", worst)
	}
}

func TestSolve5AgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		a := make([]float64, 25)
		var r [5]float64
		aCopy := make([]float64, 25)
		var rCopy [5]float64
		for i := range a {
			a[i] = rng.Float64() - 0.5
		}
		for d := 0; d < 5; d++ {
			a[d+5*d] += 3.0
		}
		for m := 0; m < 5; m++ {
			r[m] = rng.Float64() - 0.5
		}
		copy(aCopy, a)
		rCopy = r
		solve5(a, &r)
		// Check A*x == r0.
		for m := 0; m < 5; m++ {
			s := 0.0
			for l := 0; l < 5; l++ {
				s += aCopy[m+5*l] * r[l]
			}
			if math.Abs(s-rCopy[m]) > 1e-10 {
				t.Fatalf("trial %d row %d: A*x = %v, want %v", trial, m, s, rCopy[m])
			}
		}
	}
}

func TestSetbvExactOnFaces(t *testing.T) {
	b, _ := New('S', 1)
	b.setbv()
	var ue [5]float64
	n := b.n
	for _, p := range [][3]int{{0, 5, 6}, {n - 1, 5, 6}, {5, 0, 6}, {5, n - 1, 6}, {5, 6, 0}, {5, 6, n - 1}} {
		b.exactAt(p[0], p[1], p[2], &ue)
		off := b.at(p[0], p[1], p[2])
		for m := 0; m < 5; m++ {
			if b.u[off+m] != ue[m] {
				t.Fatalf("boundary %v component %d mismatch", p, m)
			}
		}
	}
}

func TestResidualDecreasesOverSSORSteps(t *testing.T) {
	b, _ := New('S', 1)
	tm := team.New(1)
	defer tm.Close()
	b.Setup(tm)
	r0 := b.l2norm(b.rsd)
	// Run a shortened SSOR loop manually.
	for i := 0; i < 10; i++ {
		b.Step(tm, i)
	}
	r1 := b.l2norm(b.rsd)
	for m := 0; m < 5; m++ {
		if !(r1[m] < r0[m]) {
			t.Fatalf("component %d residual did not decrease: %v -> %v", m, r0[m], r1[m])
		}
	}
}

func TestParallelMatchesSerialBitwise(t *testing.T) {
	run := func(threads, steps int) []float64 {
		b, _ := New('S', threads)
		tm := team.New(threads)
		defer tm.Close()
		b.Setup(tm)
		for i := 0; i < steps; i++ {
			b.Step(tm, i)
		}
		out := make([]float64, len(b.u))
		copy(out, b.u)
		return out
	}
	u1 := run(1, 5)
	u3 := run(3, 5)
	for i := range u1 {
		if u1[i] != u3[i] {
			t.Fatalf("u[%d] differs between 1 and 3 threads: %v vs %v", i, u1[i], u3[i])
		}
	}
}

func TestClassSRun(t *testing.T) {
	b, _ := New('S', 1)
	res, err := kernel.Run(context.Background(), b, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify.Failed() {
		t.Fatalf("class S failed verification:\n%s", res.Verify)
	}
	for m := 0; m < 5; m++ {
		if math.IsNaN(b.RsdNm[m]) || math.IsNaN(b.ErrNm[m]) {
			t.Fatal("NaN in verification norms")
		}
	}
	if math.IsNaN(b.Frc) || b.Frc == 0 {
		t.Fatalf("suspicious surface integral %v", b.Frc)
	}
}

func TestUnknownClassRejected(t *testing.T) {
	if _, err := New('D', 1); err == nil {
		t.Fatal("class D accepted")
	}
	if _, err := New('S', 0); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestHyperplaneMatchesPipelinedBitwise(t *testing.T) {
	// Both schedules respect the same data dependences, so every point
	// update reads identical values: the results must match bitwise.
	run := func(hyper bool, threads int) []float64 {
		var opts []Option
		if hyper {
			opts = append(opts, WithHyperplane())
		}
		b, _ := New('S', threads, opts...)
		tm := team.New(threads)
		defer tm.Close()
		b.Setup(tm)
		for i := 0; i < 5; i++ {
			b.Step(tm, i)
		}
		out := make([]float64, len(b.u))
		copy(out, b.u)
		return out
	}
	pipe := run(false, 2)
	hyp := run(true, 3)
	for i := range pipe {
		if pipe[i] != hyp[i] {
			t.Fatalf("u[%d] differs between schedules: %v vs %v", i, pipe[i], hyp[i])
		}
	}
}

func TestHyperplaneRunVerifies(t *testing.T) {
	b, _ := New('S', 2, WithHyperplane())
	res, err := kernel.Run(context.Background(), b, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify.Failed() {
		t.Fatalf("hyperplane run failed verification:\n%s", res.Verify)
	}
}
