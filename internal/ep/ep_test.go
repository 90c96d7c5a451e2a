package ep

import (
	"context"
	"math"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
)

func TestClassSVerifies(t *testing.T) {
	b, err := New('S', 1)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, b)
	if !res.Verify.Passed() {
		t.Fatalf("class S failed verification:\n%s", res.Verify)
	}
	if b.Gc <= 0 || b.Gc > b.Pairs() {
		t.Fatalf("accepted pair count %v outside (0, %v]", b.Gc, b.Pairs())
	}
}

// run drives b through the kernel driver and fails t on cancellation.
func run(t *testing.T, b *Benchmark) kernel.Result {
	t.Helper()
	res, err := kernel.Run(context.Background(), b, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAcceptanceRateNearPiOver4(t *testing.T) {
	// The polar method accepts points inside the unit disc; the
	// acceptance rate must be close to pi/4.
	b, _ := New('S', 1)
	run(t, b)
	rate := b.Gc / b.Pairs()
	if math.Abs(rate-math.Pi/4) > 0.001 {
		t.Fatalf("acceptance rate %v far from pi/4", rate)
	}
}

func TestAnnulusCountsDecrease(t *testing.T) {
	// Gaussian mass decays with radius: the first annulus must dominate
	// and counts must be (weakly) decreasing.
	b, _ := New('S', 1)
	run(t, b)
	for l := 1; l < nq; l++ {
		if b.Q[l] > b.Q[l-1] {
			t.Fatalf("annulus counts not decreasing: q[%d]=%v > q[%d]=%v", l, b.Q[l], l-1, b.Q[l-1])
		}
	}
	// For max(|X|,|Y|) of two standard normals, P(max < 1) = 0.683^2,
	// about 47% of accepted pairs.
	if b.Q[0] < 0.4*b.Gc {
		t.Fatalf("first annulus holds only %v of %v", b.Q[0], b.Gc)
	}
}

func TestParallelMatchesSerialExactly(t *testing.T) {
	sres, _ := New('S', 1)
	run(t, sres)
	for _, n := range []int{2, 4} {
		pres, _ := New('S', n)
		res := run(t, pres)
		// Worker partials are combined in deterministic order, so a
		// parallel run is reproducible, but the association differs
		// from serial; allow last-bit drift only.
		if math.Abs(sres.Sx-pres.Sx) > 1e-10*math.Abs(sres.Sx) ||
			math.Abs(sres.Sy-pres.Sy) > 1e-10*math.Abs(sres.Sy) {
			t.Fatalf("threads=%d sums differ: (%v,%v) vs (%v,%v)", n, sres.Sx, sres.Sy, pres.Sx, pres.Sy)
		}
		if sres.Gc != pres.Gc {
			t.Fatalf("threads=%d counts differ: %v vs %v", n, sres.Gc, pres.Gc)
		}
		for l := range sres.Q {
			if sres.Q[l] != pres.Q[l] {
				t.Fatalf("threads=%d annulus %d differs: %v vs %v", n, l, sres.Q[l], pres.Q[l])
			}
		}
		if !res.Verify.Passed() {
			t.Fatalf("threads=%d failed verification:\n%s", n, res.Verify)
		}
	}
}

func TestUnknownClassRejected(t *testing.T) {
	if _, err := New('Z', 1); err == nil {
		t.Fatal("class Z accepted")
	}
	if _, err := New('S', 0); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestPairsPerClass(t *testing.T) {
	b, _ := New('A', 1)
	if b.Pairs() != float64(1<<28) {
		t.Fatalf("class A pairs = %v, want 2^28", b.Pairs())
	}
}

func TestBatchSeedJumpMatchesDirectStream(t *testing.T) {
	// Batch kk's starting seed must equal the raw stream advanced past
	// kk full batches (2*nk draws each): generate batch 1 directly by
	// drawing 2*nk values after batch 0's and compare sums.
	an := amult
	for i := 0; i < mk+1; i++ {
		randdp.Randlc(&an, an)
	}
	// Direct: advance a stream past batch 0, then fill batch 1's block.
	s := seed
	x := make([]float64, 2*nk)
	randdp.Vranlc(2*nk, &s, amult, x) // batch 0 consumed
	direct := make([]float64, 2*nk)
	randdp.Vranlc(2*nk, &s, amult, direct)

	var st batchState
	scratch := make([]float64, 2*nk)
	runBatch(1, an, &st, scratch)
	// Recompute what runBatch saw for batch 1 by reproducing its seed.
	t1 := seed
	randdp.Randlc(&t1, an)
	batch := make([]float64, 2*nk)
	randdp.Vranlc(2*nk, &t1, amult, batch)
	for i := range batch {
		if batch[i] != direct[i] {
			t.Fatalf("element %d: jumped stream %v != direct stream %v", i, batch[i], direct[i])
		}
	}
}
