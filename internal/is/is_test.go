package is

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"npbgo/internal/kernel"
	"npbgo/internal/team"
)

func TestClassSFullVerify(t *testing.T) {
	b, err := New('S', 1)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, b)
	if b.OutOfSeq != 0 {
		t.Fatalf("%d out-of-order pairs after sort", b.OutOfSeq)
	}
	if !res.Verify.Passed() {
		t.Fatalf("verification failed:\n%s", res.Verify)
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

func TestParallelFullVerify(t *testing.T) {
	for _, n := range []int{2, 4} {
		b, err := New('S', n)
		if err != nil {
			t.Fatal(err)
		}
		if run(t, b); b.OutOfSeq != 0 {
			t.Fatalf("threads=%d: %d out-of-order pairs", n, b.OutOfSeq)
		}
	}
}

func TestSortIsPermutation(t *testing.T) {
	b, _ := New('S', 1)
	b.createSeq()
	before := make([]int32, len(b.keys))
	copy(before, b.keys)

	tm := team.New(1)
	defer tm.Close()
	b.rank(tm, 1)
	// rank(1) perturbs two positions; capture the perturbed input.
	perturbed := make([]int32, len(b.keys))
	copy(perturbed, b.keys)

	b.fullVerify()

	// The output must be exactly the multiset of the perturbed input.
	wantHist := map[int32]int{}
	for _, k := range perturbed {
		wantHist[k]++
	}
	for _, k := range b.keys {
		wantHist[k]--
	}
	for k, c := range wantHist {
		if c != 0 {
			t.Fatalf("key %d count off by %d — not a permutation", k, c)
		}
	}
	_ = before
}

func TestKeysWithinRange(t *testing.T) {
	b, _ := New('S', 1)
	b.createSeq()
	for i, k := range b.keys {
		if k < 0 || int(k) >= b.maxKey {
			t.Fatalf("key[%d]=%d outside [0,%d)", i, k, b.maxKey)
		}
	}
}

func TestKeyDistributionCentered(t *testing.T) {
	// Keys are sums of four uniforms scaled by maxKey/4: mean maxKey/2.
	b, _ := New('S', 1)
	b.createSeq()
	sum := 0.0
	for _, k := range b.keys {
		sum += float64(k)
	}
	mean := sum / float64(len(b.keys))
	mid := float64(b.maxKey) / 2
	if mean < 0.95*mid || mean > 1.05*mid {
		t.Fatalf("key mean %v far from %v", mean, mid)
	}
}

func TestRanksMatchStdlibSortProperty(t *testing.T) {
	// Property: our histogram ranking sorts any random key set exactly
	// like sort.Slice.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		b := &Benchmark{
			Class:   'S',
			numKeys: len(raw),
			maxKey:  1 << 11,
			threads: 1,
		}
		b.keys = make([]int32, len(raw))
		b.buff2 = make([]int32, len(raw))
		b.dens = make([]int32, b.maxKey)
		b.local = [][]int32{make([]int32, b.maxKey)}
		want := make([]int32, len(raw))
		for i, r := range raw {
			b.keys[i] = int32(int(r) % b.maxKey)
			want[i] = b.keys[i]
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		tm := team.New(1)
		defer tm.Close()
		// Histogram + prefix without the per-iteration perturbation.
		loc := b.local[0]
		for i := range loc {
			loc[i] = 0
		}
		for i := range b.keys {
			loc[b.keys[i]]++
		}
		copy(b.dens, loc)
		for i := 0; i < b.maxKey-1; i++ {
			b.dens[i+1] += b.dens[i]
		}
		b.fullVerify()
		for i := range want {
			if b.keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownClassRejected(t *testing.T) {
	if _, err := New('X', 1); err == nil {
		t.Fatal("class X accepted")
	}
	if _, err := New('S', 0); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestClassSizes(t *testing.T) {
	b, _ := New('A', 1)
	if b.NumKeys() != 1<<23 || b.MaxKey() != 1<<19 {
		t.Fatalf("class A sizes wrong: %d keys, %d max", b.NumKeys(), b.MaxKey())
	}
}

// TestRankShiftInvariant: each iteration writes iteration into position
// `iteration` and maxKey-iteration into position iteration+10, so the
// cumulative rank of a probe key must move deterministically between
// iterations — the invariant behind the C original's partial
// verification, checked here without its rank tables.
func TestRankShiftInvariant(t *testing.T) {
	b, _ := New('S', 1)
	tm := team.New(1)
	defer tm.Close()
	b.createSeq()

	rankOf := func(key int32) int32 { return b.dens[key] }

	b.rank(tm, 1)
	probe := int32(b.maxKey / 2)
	r1 := rankOf(probe)
	b.rank(tm, 2)
	r2 := rankOf(probe)
	// Between iteration 1 and 2 the two perturbed cells change from
	// (1, maxKey-1) to (2, maxKey-2): both below/above the mid probe as
	// before, so the probe's cumulative rank moves by at most 2.
	if d := r2 - r1; d < -2 || d > 2 {
		t.Fatalf("probe rank moved by %d between iterations", d)
	}
	// A probe below the small inserted keys must see its rank change by
	// exactly 0 when keys just move within the region above it.
	lo := rankOf(0)
	b.rank(tm, 3)
	if rankOf(0) != lo {
		t.Fatalf("rank of key 0 changed: %d -> %d", lo, rankOf(0))
	}
}

func TestAllKeysEqualSorts(t *testing.T) {
	b, _ := New('S', 1)
	tm := team.New(1)
	defer tm.Close()
	for i := range b.keys {
		b.keys[i] = 7
	}
	b.rank(tm, 1)
	if bad := b.fullVerify(); bad != 0 {
		t.Fatalf("%d out-of-order pairs on near-constant input", bad)
	}
}

func TestBucketedMatchesStraightRanks(t *testing.T) {
	for _, threads := range []int{1, 3} {
		a, _ := New('S', threads)
		c, _ := New('S', threads, WithBuckets())
		tm := team.New(threads)
		a.createSeq()
		c.createSeq()
		for it := 1; it <= 3; it++ {
			a.rank(tm, it)
			c.rank(tm, it)
		}
		tm.Close()
		for k := range a.dens {
			if a.dens[k] != c.dens[k] {
				t.Fatalf("threads=%d rank of key %d differs: %d vs %d", threads, k, a.dens[k], c.dens[k])
			}
		}
	}
}

func TestBucketedFullRunVerifies(t *testing.T) {
	for _, threads := range []int{1, 4} {
		b, err := New('S', threads, WithBuckets())
		if err != nil {
			t.Fatal(err)
		}
		if run(t, b); b.OutOfSeq != 0 {
			t.Fatalf("threads=%d: %d out-of-order pairs (bucketed)", threads, b.OutOfSeq)
		}
	}
}
