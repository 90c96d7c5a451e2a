// Package ep implements the NPB EP (Embarrassingly Parallel) kernel: it
// generates pairs of uniform pseudorandom numbers, maps them to Gaussian
// deviates with the Marsaglia polar method, and tallies the deviates in
// square annuli. EP is the fifth NPB kernel (the paper lists five
// kernels; it reports results for the other four, and EP is included
// here for suite completeness as in NPB2.3/3.0).
//
// Independent batches of 2^mk pairs are generated from jumped-ahead
// generator seeds, which is what makes the kernel embarrassingly
// parallel: the batch list is statically split over the team and partial
// sums are combined in deterministic order.
package ep

import (
	"fmt"
	"math"

	"npbgo/internal/fault"
	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/verify"
)

const (
	mk    = 16 // batch size exponent: 2^mk pairs per batch
	nk    = 1 << mk
	nq    = 10 // number of annuli tallied
	seed  = 271828183.0
	amult = randdp.A
)

// classM maps problem class to the total-pairs exponent m (2^m pairs).
var classM = map[byte]int{'S': 24, 'W': 25, 'A': 28, 'B': 30, 'C': 32}

// reference sums from the official ep verification, per class.
var reference = map[byte][2]float64{
	'S': {-3.247834652034740e+3, -6.958407078382297e+3},
	'W': {-2.863319731645753e+3, -6.320053679109499e+3},
	'A': {-4.295875165629892e+3, -1.580732573678431e+4},
	'B': {4.033815542441498e+4, -2.660669192809235e+4},
	'C': {4.764367927995374e+4, -8.084072988043731e+4},
}

// Benchmark is one configured EP instance. All buffers a run needs —
// per-worker accumulation states, vranlc scratch, the hoisted region
// body — are allocated once here, so the batch sweep itself runs
// allocation-free (gated at zero by internal/allocgate).
type Benchmark struct {
	// Phases supplies the timer set each worker charges its batch loop
	// to (t_batch/w<id>), so the profile shows both the per-thread time
	// split and, via lap counts, how many batches each worker processed
	// — the per-thread view the paper's load-balance analysis is built
	// on.
	kernel.Phases

	Class   byte
	m       int
	nn      int // number of 2^mk batches
	an      float64
	threads int

	// Sx, Sy, Q and Gc are the Gaussian deviate sums, the annulus
	// counts and the accepted pair count of the last Verify.
	Sx, Sy float64
	Q      [nq]float64
	Gc     float64

	states []batchState // per-block tallies, reset each Step
	x      [][]float64  // per-worker vranlc scratch, 2*nk doubles each
	batch  []string     // per-worker batch-loop timer names
	tm     *team.Team   // team of the current Step, read by body
	body   func(id int) // hoisted batch-sweep region body
}

// New configures EP for the given class ('S','W','A','B','C') and thread
// count.
func New(class byte, threads int) (*Benchmark, error) {
	m, ok := classM[class]
	if !ok {
		return nil, fmt.Errorf("ep: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("ep: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, m: m, threads: threads}
	b.nn = 1 << (b.m - mk)
	// an = a^(2*nk) mod 2^46: mk+1 squarings of a.
	an := amult
	for i := 0; i < mk+1; i++ {
		randdp.Randlc(&an, an)
	}
	b.an = an
	b.states = make([]batchState, threads)
	b.x = make([][]float64, threads)
	for id := range b.x {
		b.x[id] = make([]float64, 2*nk)
	}
	b.batch = make([]string, threads)
	for id := range b.batch {
		b.batch[id] = timer.Worker("t_batch", id)
	}
	//npblint:hot per-worker batch sweep, constructed once and reused every run.
	// Tallies accumulate per static block (it.Chunk()), not per worker, so
	// the final sums are bit-identical under every schedule.
	b.body = func(id int) {
		tm := b.tm
		x := b.x[id]
		ts, phase := b.Timers(), b.batch[id]
		for it := tm.ReduceBlocks(id, 0, b.nn); it.Next(); {
			st := &b.states[it.Chunk()]
			for kk := it.Lo; kk < it.Hi; kk++ {
				if tm.Cancelled() {
					return
				}
				fault.Maybe("ep.batch")
				if ts != nil {
					ts.Start(phase)
				}
				runBatch(kk, b.an, st, x)
				if ts != nil {
					ts.Stop(phase)
				}
			}
		}
	}
	return b, nil
}

// Threads returns the team size EP was built for.
func (b *Benchmark) Threads() int { return b.threads }

// Setup does nothing: EP has no untimed prologue.
func (b *Benchmark) Setup(*team.Team) {}

// Steps returns 1: the whole batch sweep is one timed step.
func (b *Benchmark) Steps() int { return 1 }

// Step runs one pass over every batch on tm — the whole timed section
// of EP, with no per-pass allocation (enforced by internal/allocgate).
// Workers poll for cancellation at every batch boundary.
func (b *Benchmark) Step(tm *team.Team, _ int) {
	b.tm = tm
	for i := range b.states {
		b.states[i] = batchState{}
	}
	tm.Run(b.body)
}

// Pairs returns the total number of random pairs the configured class
// generates.
func (b *Benchmark) Pairs() float64 { return math.Pow(2, float64(b.m)) }

// batchState is the per-worker accumulation state, padded apart by
// being separate values returned from each worker.
type batchState struct {
	sx, sy float64
	q      [nq]float64
}

// runBatch processes batch index kk (0-based: ep.f iterates k = 1..nn
// with k_offset = -1, so the first batch starts from the raw seed),
// starting from the jumped-ahead seed, and accumulates into st. x is the
// caller-provided scratch of 2*nk doubles.
func runBatch(kk int, an float64, st *batchState, x []float64) {
	t1 := seed
	t2 := an
	// Find the starting seed for batch kk by binary exponentiation over
	// the batch index, exactly as ep.f does.
	for i := 1; i <= 100; i++ {
		ik := kk / 2
		if 2*ik != kk {
			randdp.Randlc(&t1, t2)
		}
		if ik == 0 {
			break
		}
		randdp.Randlc(&t2, t2)
		kk = ik
	}
	randdp.Vranlc(2*nk, &t1, amult, x)

	for i := 0; i < nk; i++ {
		x1 := 2.0*x[2*i] - 1.0
		x2 := 2.0*x[2*i+1] - 1.0
		t := x1*x1 + x2*x2
		if t <= 1.0 {
			t3 := math.Sqrt(-2.0 * math.Log(t) / t)
			g1 := x1 * t3
			g2 := x2 * t3
			l := int(math.Max(math.Abs(g1), math.Abs(g2)))
			st.q[l]++
			st.sx += g1
			st.sy += g2
		}
	}
}

// Verify combines the per-block tallies in block order and checks the
// deviate sums against the class references.
func (b *Benchmark) Verify(*team.Team) (*verify.Report, float64) {
	b.Sx, b.Sy, b.Q, b.Gc = 0, 0, [nq]float64{}, 0
	for id := 0; id < b.threads; id++ {
		b.Sx += b.states[id].sx
		b.Sy += b.states[id].sy
		for l := 0; l < nq; l++ {
			b.Q[l] += b.states[id].q[l]
		}
	}
	for l := 0; l < nq; l++ {
		b.Gc += b.Q[l]
	}

	rep := &verify.Report{Tier: verify.TierOfficial}
	if ref, ok := reference[b.Class]; ok {
		rep.Add("sx", fault.CorruptFloat("ep.verify", b.Sx), ref[0])
		rep.Add("sy", b.Sy, ref[1])
	} else {
		rep.Tier = verify.TierNone
	}
	return rep, b.Pairs()
}
