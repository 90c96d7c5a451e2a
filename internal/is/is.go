// Package is implements the NPB IS kernel: ranking (sorting) of integer
// keys with a linear-time histogram/counting method. IS is the second
// member of the paper's "unstructured" benchmark group and the one whose
// scalability the paper expected to be poor — the per-thread work is
// small relative to the data movement.
//
// The key sequence is generated from the shared NPB generator (four
// draws summed per key, giving an approximately Gaussian key
// distribution). Each timed iteration perturbs two keys and re-ranks the
// whole array; after the final iteration the keys are permuted into
// sorted order and fully verified (the official full_verify criterion:
// zero out-of-order pairs; the partial-verification rank tables of the C
// original are not embedded — see DESIGN.md on verification tiers).
package is

import (
	"fmt"

	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// maxIterations is the number of ranking passes, fixed at 10 for all
// classes in the original.
const maxIterations = 10

type params struct {
	totalKeysLog2 uint
	maxKeyLog2    uint
}

var classes = map[byte]params{
	'S': {16, 11},
	'W': {20, 16},
	'A': {23, 19},
	'B': {25, 21},
	'C': {27, 23},
}

// Benchmark is a configured IS instance.
type Benchmark struct {
	kernel.Phases // rank

	Class   byte
	numKeys int
	maxKey  int
	threads int
	buckets bool // bucketed ranking (the C original's USE_BUCKETS path)

	// OutOfSeq is the out-of-order pair count of the last Verify.
	OutOfSeq int

	keys  []int32 // the key array (regenerated by Setup)
	buff2 []int32 // key copy used during ranking
	dens  []int32 // global key density / cumulative ranks
	local [][]int32

	// Bucket machinery (allocated only when buckets is set).
	bucketSize  []int32 // per-worker x nbuckets counts
	bucketPtrs  []int32 // per-worker bucket write cursors
	bucketStart []int32

	// Steady-state machinery: the ranking-region bodies are built once
	// by New and reused every pass (a closure literal at the call site
	// would allocate per pass), keeping the timed loop free of heap
	// allocation (enforced by internal/allocgate).
	tm           *team.Team
	shift        uint // log2(maxKey) - 10, the bucket selector
	straightBody func(id int)
	bucketBody   func(id int)
}

// nbuckets is the bucket count of the C original (2^10).
const nbuckets = 1 << 10

// Option configures optional benchmark behaviour.
type Option func(*Benchmark)

// WithBuckets selects the bucketed ranking algorithm: keys are first
// scattered into 2^10 coarse buckets, then counted bucket-by-bucket,
// trading a pass of data movement for much better cache locality in the
// counting phase — the USE_BUCKETS variant of the C original.
func WithBuckets() Option { return func(b *Benchmark) { b.buckets = true } }

// New configures IS for the given class and thread count.
func New(class byte, threads int, opts ...Option) (*Benchmark, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("is: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("is: threads %d < 1", threads)
	}
	b := &Benchmark{
		Class:   class,
		numKeys: 1 << p.totalKeysLog2,
		maxKey:  1 << p.maxKeyLog2,
		threads: threads,
	}
	for _, o := range opts {
		o(b)
	}
	b.keys = make([]int32, b.numKeys)
	b.buff2 = make([]int32, b.numKeys)
	b.dens = make([]int32, b.maxKey)
	b.local = make([][]int32, threads)
	for i := range b.local {
		b.local[i] = make([]int32, b.maxKey)
	}
	if b.buckets {
		b.bucketSize = make([]int32, threads*nbuckets)
		b.bucketPtrs = make([]int32, threads*nbuckets)
		b.bucketStart = make([]int32, nbuckets+1)
	}
	for 1<<(b.shift+10) < b.maxKey {
		b.shift++
	}
	b.buildBodies()
	return b, nil
}

// buildBodies constructs the two ranking-region bodies once. Each is a
// func(id int) handed straight to Team.Run, with loop shares from the
// team's schedule iterator inside the body, so no closure is created
// per pass. Both histogram phases are integer sums over disjoint
// outputs, so any schedule produces identical ranks.
func (b *Benchmark) buildBodies() {
	//npblint:hot straight histogram ranking, one region per pass
	b.straightBody = func(id int) {
		tm := b.tm
		loc := b.local[id]
		for i := range loc {
			loc[i] = 0
		}
		// Each worker histograms whatever key chunks it claims; the
		// combine below sums the same per-worker counts regardless of
		// which chunks landed where.
		for it := tm.Loop(id, 0, b.numKeys); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				b.buff2[i] = b.keys[i]
				loc[b.buff2[i]]++
			}
		}
		tm.BarrierID(id)
		// Combine local histograms into the global density, each chunk
		// owning a contiguous key sub-range.
		for it := tm.Loop(id, 0, b.maxKey); it.Next(); {
			for key := it.Lo; key < it.Hi; key++ {
				sum := int32(0)
				for w := 0; w < tm.Size(); w++ {
					sum += b.local[w][key]
				}
				b.dens[key] = sum
			}
		}
	}

	//npblint:hot bucketed (USE_BUCKETS) ranking, one region per pass
	b.bucketBody = func(id int) {
		tm := b.tm
		size := tm.Size()
		shift := b.shift
		// Per-worker bucket counts over this worker's key block. The
		// count and scatter phases must stay on the static Block split:
		// the per-(worker,bucket) write cursors computed between them
		// assume each worker scatters exactly the keys it counted.
		lo, hi := team.Block(0, b.numKeys, size, id)
		cnt := b.bucketSize[id*nbuckets : (id+1)*nbuckets]
		for i := range cnt {
			cnt[i] = 0
		}
		for i := lo; i < hi; i++ {
			cnt[b.keys[i]>>shift]++
		}
		tm.BarrierID(id)
		// Worker 0 computes global bucket boundaries and per-worker
		// write cursors (serial; nbuckets is tiny).
		if id == 0 {
			pos := int32(0)
			for bk := 0; bk < nbuckets; bk++ {
				b.bucketStart[bk] = pos
				for w := 0; w < size; w++ {
					b.bucketPtrs[w*nbuckets+bk] = pos
					pos += b.bucketSize[w*nbuckets+bk]
				}
			}
			b.bucketStart[nbuckets] = pos
		}
		tm.BarrierID(id)
		// Scatter this worker's keys into buff2, bucket-ordered.
		ptr := b.bucketPtrs[id*nbuckets : (id+1)*nbuckets]
		for i := lo; i < hi; i++ {
			k := b.keys[i]
			bk := k >> shift
			b.buff2[ptr[bk]] = k
			ptr[bk]++
		}
		tm.BarrierID(id)
		// Count keys bucket-by-bucket: each chunk owns a contiguous
		// range of buckets, hence a contiguous, disjoint slice of the
		// density array — no combining needed. This is the skewed loop
		// (the Gaussian key distribution loads the middle buckets), so
		// it runs under the team's schedule.
		for it := tm.Loop(id, 0, nbuckets); it.Next(); {
			blo, bhi := it.Lo, it.Hi
			if blo >= bhi {
				continue
			}
			kmin := blo << shift
			kmax := bhi << shift
			if kmax > b.maxKey {
				kmax = b.maxKey
			}
			for key := kmin; key < kmax; key++ {
				b.dens[key] = 0
			}
			for i := b.bucketStart[blo]; i < b.bucketStart[bhi]; i++ {
				b.dens[b.buff2[i]]++
			}
		}
	}
}

// NumKeys returns the number of keys ranked per iteration.
func (b *Benchmark) NumKeys() int { return b.numKeys }

// MaxKey returns the exclusive key upper bound.
func (b *Benchmark) MaxKey() int { return b.maxKey }

// createSeq regenerates the key array, as create_seq in the C original:
// each key is the sum of four generator draws scaled by maxKey/4.
func (b *Benchmark) createSeq() {
	seed := 314159265.0
	k := float64(b.maxKey / 4)
	for i := range b.keys {
		x := randdp.Randlc(&seed, randdp.A)
		x += randdp.Randlc(&seed, randdp.A)
		x += randdp.Randlc(&seed, randdp.A)
		x += randdp.Randlc(&seed, randdp.A)
		b.keys[i] = int32(k * x)
	}
}

// rank dispatches one ranking pass to the straight or bucketed
// algorithm.
func (b *Benchmark) rank(tm *team.Team, iteration int) {
	if b.buckets {
		b.rankBuckets(tm, iteration)
		return
	}
	b.rankStraight(tm, iteration)
}

// rankBuckets is the USE_BUCKETS ranking pass: scatter keys into 2^10
// coarse buckets (so the counting pass walks one small, cache-resident
// key sub-range at a time), then count and prefix-sum per bucket.
func (b *Benchmark) rankBuckets(tm *team.Team, iteration int) {
	b.keys[iteration] = int32(iteration)
	b.keys[iteration+maxIterations] = int32(b.maxKey - iteration)

	b.tm = tm
	tm.Run(b.bucketBody)

	// Serial prefix sum, as in the straight variant.
	for i := 0; i < b.maxKey-1; i++ {
		b.dens[i+1] += b.dens[i]
	}
}

// rankStraight performs one ranking pass: perturb two keys (so each
// iteration does distinct work), histogram all keys, and prefix-sum the
// histogram into cumulative ranks, split over the team.
func (b *Benchmark) rankStraight(tm *team.Team, iteration int) {
	b.keys[iteration] = int32(iteration)
	b.keys[iteration+maxIterations] = int32(b.maxKey - iteration)

	b.tm = tm
	tm.Run(b.straightBody)

	// Serial prefix sum (O(maxKey); the C original is serial here too).
	for i := 0; i < b.maxKey-1; i++ {
		b.dens[i+1] += b.dens[i]
	}
}

// Threads returns the team size IS was built for.
func (b *Benchmark) Threads() int { return b.threads }

// Setup generates the keys and runs one untimed ranking pass, as in the
// C original.
func (b *Benchmark) Setup(tm *team.Team) {
	b.createSeq()
	b.rank(tm, 1)
}

// Steps returns the number of timed ranking passes.
func (b *Benchmark) Steps() int { return maxIterations }

// Step runs timed ranking pass i+1 on tm, whose Size must equal the
// thread count the Benchmark was built with. After the first call it
// performs no heap allocation (enforced by internal/allocgate).
func (b *Benchmark) Step(tm *team.Team, i int) {
	b.Begin("rank")
	b.rank(tm, i+1)
	b.End("rank")
}

// Verify permutes the keys into sorted order and counts out-of-order
// pairs, the official full_verify criterion.
func (b *Benchmark) Verify(*team.Team) (*verify.Report, float64) {
	b.OutOfSeq = b.fullVerify()
	rep := &verify.Report{Tier: verify.TierOfficial}
	rep.Add("out-of-order pairs", float64(b.OutOfSeq), 0)
	return rep, float64(b.numKeys * maxIterations)
}

// fullVerify permutes the keys into sorted order using the final
// cumulative ranks and counts out-of-order pairs, as full_verify.
func (b *Benchmark) fullVerify() int {
	// dens currently holds cumulative counts; walking keys backwards
	// through --dens[key] yields a stable sort placement.
	for i := 0; i < b.numKeys; i++ {
		b.buff2[i] = b.keys[i]
	}
	for i := b.numKeys - 1; i >= 0; i-- {
		k := b.buff2[i]
		b.dens[k]--
		b.keys[b.dens[k]] = k
	}
	bad := 0
	for i := 1; i < b.numKeys; i++ {
		if b.keys[i-1] > b.keys[i] {
			bad++
		}
	}
	return bad
}
