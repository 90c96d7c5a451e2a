package npbgo_test

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"npbgo"
)

func TestEveryBenchmarkClassSVerifies(t *testing.T) {
	for _, b := range npbgo.Benchmarks() {
		b := b
		t.Run(string(b), func(t *testing.T) {
			res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'S', Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("verification failed:\n%s", res.Detail)
			}
			if !res.Verified {
				t.Fatalf("expected official verification for %s.S, got tier %s", b, res.Tier)
			}
			if res.Tier != "official" {
				t.Fatalf("tier = %s, want official", res.Tier)
			}
			if res.Elapsed <= 0 || res.Mops <= 0 {
				t.Fatalf("degenerate timing: %v, %v Mop/s", res.Elapsed, res.Mops)
			}
		})
	}
}

func TestDefaultsApplied(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.EP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != 'S' || res.Threads != 1 {
		t.Fatalf("defaults not applied: class %c threads %d", res.Class, res.Threads)
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	if _, err := npbgo.Run(npbgo.Config{Benchmark: "QQ"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBadClassPropagates(t *testing.T) {
	if _, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'Q'}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestResultString(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.MG, Class: 'S'})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "MG.S") || !strings.Contains(s, "VERIFIED") {
		t.Fatalf("String() = %q", s)
	}
}

func TestWarmupOption(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 2, Warmup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("warmup run unverified:\n%s", res.Detail)
	}
}

// TestScheduleOptionEquivalence: every loop schedule must produce the
// exact same verification printout as the static default for every
// benchmark — the computed values are printed at full float64
// precision, so an identical Detail string is a bit-identity check on
// the benchmark's numerical results. CG and EP exercise the
// block-indexed reduction path, MG the per-block norm maxima, LU and IS
// the loops that must stay static beside the scheduled ones.
func TestScheduleOptionEquivalence(t *testing.T) {
	for _, b := range npbgo.Benchmarks() {
		base, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'S', Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !base.Verified {
			t.Fatalf("static %s.S unverified:\n%s", b, base.Detail)
		}
		for _, sched := range []string{"dynamic", "guided", "stealing", "auto"} {
			res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'S', Threads: 3, Schedule: sched})
			if err != nil {
				t.Fatalf("%s schedule %s: %v", b, sched, err)
			}
			if !res.Verified {
				t.Fatalf("%s under %s unverified:\n%s", b, sched, res.Detail)
			}
			if res.Detail != base.Detail {
				t.Fatalf("%s under %s diverged from static:\n%s\nvs static:\n%s",
					b, sched, res.Detail, base.Detail)
			}
		}
	}
}

// TestBadScheduleRejected: an unknown schedule name must fail up front
// as a config error, before any benchmark state is built.
func TestBadScheduleRejected(t *testing.T) {
	_, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Schedule: "round-robin"})
	if err == nil {
		t.Fatal("unknown schedule accepted")
	}
	if !strings.Contains(err.Error(), "schedule") {
		t.Fatalf("error %q does not mention the schedule", err)
	}
}

func TestPoissonSolverReducesResidual(t *testing.T) {
	s, err := npbgo.NewPoissonSolver(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	rhs := make([]float64, n*n*n)
	rhs[0] = 1
	rhs[n*n*n/2] = -1
	_, r1, err := s.Solve(rhs, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, r4, err := s.Solve(rhs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !(r4 < r1/20) {
		t.Fatalf("V-cycles not converging: 1 cycle %v, 4 cycles %v", r1, r4)
	}
}

func TestPoissonSolverSolutionSatisfiesEquation(t *testing.T) {
	s, err := npbgo.NewPoissonSolver(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	rhs := make([]float64, n*n*n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i)) // arbitrary; mean removed by Solve
	}
	u, res, err := s.Solve(rhs, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check the returned residual with the independent
	// ResidualOf evaluation on the de-meaned rhs.
	mean := 0.0
	for _, v := range rhs {
		mean += v
	}
	mean /= float64(len(rhs))
	rhs0 := make([]float64, len(rhs))
	for i := range rhs {
		rhs0[i] = rhs[i] - mean
	}
	res2, err := s.ResidualOf(u, rhs0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res-res2) > 1e-10*(1+res) {
		t.Fatalf("residual mismatch: Solve %v vs ResidualOf %v", res, res2)
	}
}

func TestPoissonSolverRejectsBadInput(t *testing.T) {
	if _, err := npbgo.NewPoissonSolver(15, 1); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := npbgo.NewPoissonSolver(32, 0); err == nil {
		t.Fatal("zero threads accepted")
	}
	s, _ := npbgo.NewPoissonSolver(8, 1)
	if _, _, err := s.Solve(make([]float64, 3), 1); err == nil {
		t.Fatal("wrong-size rhs accepted")
	}
}

func TestFFT3DRoundTrip(t *testing.T) {
	const nx, ny, nz = 16, 8, 4
	data := make([]complex128, nx*ny*nz)
	orig := make([]complex128, len(data))
	for i := range data {
		data[i] = complex(float64(i%17)*0.25, float64(i%5)-2)
		orig[i] = data[i]
	}
	if err := npbgo.FFT3D(1, nx, ny, nz, data, 2); err != nil {
		t.Fatal(err)
	}
	if err := npbgo.FFT3D(-1, nx, ny, nz, data, 2); err != nil {
		t.Fatal(err)
	}
	scale := complex(float64(nx*ny*nz), 0)
	for i := range data {
		if cmplx.Abs(data[i]/scale-orig[i]) > 1e-12 {
			t.Fatalf("roundtrip failed at %d: %v vs %v", i, data[i]/scale, orig[i])
		}
	}
}

func TestFFT3DRejectsBadInput(t *testing.T) {
	d := make([]complex128, 8)
	if err := npbgo.FFT3D(0, 2, 2, 2, d, 1); err == nil {
		t.Fatal("dir 0 accepted")
	}
	if err := npbgo.FFT3D(1, 3, 2, 2, d, 1); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if err := npbgo.FFT3D(1, 2, 2, 2, d[:4], 1); err == nil {
		t.Fatal("short data accepted")
	}
	if err := npbgo.FFT3D(1, 2, 2, 2, d, 0); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestTeamExported(t *testing.T) {
	tm := npbgo.NewTeam(3)
	defer tm.Close()
	sum := tm.ReduceSum(0, 100, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i)
		}
		return s
	})
	if sum != 4950 {
		t.Fatalf("ReduceSum = %v", sum)
	}
	lo, hi := npbgo.BlockRange(0, 10, 3, 0)
	if lo != 0 || hi != 4 {
		t.Fatalf("BlockRange = %d,%d", lo, hi)
	}
}
