// Package bt implements the NPB BT pseudo-application: an Alternating
// Direction Implicit (ADI) approximate factorization of the 3-D
// compressible Navier-Stokes equations in which each direction yields a
// block-tridiagonal system of 5x5 blocks, solved with a block Thomas
// algorithm. BT leads the paper's structured-grid benchmark group, and
// its inner kernels (stencil fluxes, 5x5 block matrix-vector work) are
// exactly the basic operations of the paper's Table 1.
package bt

import (
	"fmt"

	"npbgo/internal/kernel"
	"npbgo/internal/nscore"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// classSpec defines one BT problem class.
type classSpec struct {
	size  int     // grid points per side
	niter int     // time steps
	dt    float64 // time step size
}

var classes = map[byte]classSpec{
	'S': {12, 60, 0.010},
	'W': {24, 200, 0.0008},
	'A': {64, 200, 0.0008},
	'B': {102, 200, 0.0003},
	'C': {162, 200, 0.0001},
}

// Benchmark is a configured BT instance with all state allocated.
type Benchmark struct {
	kernel.Phases // rhs, xsolve, ysolve, zsolve, add

	Class   byte
	n       int
	niter   int
	threads int
	c       nscore.Consts
	f       *nscore.Field

	// XCR and XCE are the residual and error norms of the last Verify.
	XCR, XCE [5]float64

	scratch []*lineScratch // per-worker line solve storage

	// Steady-state machinery: the solve bodies below are built once by
	// New and reused every ADI step (a closure literal at the call site
	// would allocate per invocation), keeping the timed loop free of
	// heap allocation (enforced by internal/allocgate). tm stages the
	// current step's team; the dirSpecs are precomputed from the
	// constants.
	tm                  *team.Team
	dsX, dsY, dsZ       dirSpec
	xBody, yBody, zBody func(id int)
}

// New configures BT for the given class and thread count and allocates
// its fields.
func New(class byte, threads int) (*Benchmark, error) {
	spec, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("bt: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("bt: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, n: spec.size, niter: spec.niter, threads: threads}
	b.c = nscore.SetConstants(spec.size, spec.dt)
	b.f = nscore.NewField(spec.size, false)
	b.scratch = make([]*lineScratch, threads)
	for i := range b.scratch {
		b.scratch[i] = newLineScratch(spec.size)
	}
	b.buildBodies()
	return b, nil
}

// Threads returns the team size BT was built for.
func (b *Benchmark) Threads() int { return b.threads }

// Setup initializes the field, runs one feed-through ADI step and
// re-initializes, as the Fortran main does before its timer starts.
func (b *Benchmark) Setup(tm *team.Team) {
	b.f.Initialize(&b.c)
	b.f.ExactRHS(&b.c)
	b.Step(tm, 0)
	b.f.Initialize(&b.c)
}

// Steps returns the number of timed ADI steps.
func (b *Benchmark) Steps() int { return b.niter }

// Verify evaluates xcr = ||rhs||/dt from a fresh rhs and the solution
// error xce (verify.f) and checks them against the class references.
func (b *Benchmark) Verify(tm *team.Team) (*verify.Report, float64) {
	b.f.ComputeRHS(&b.c, tm)
	b.XCR = b.f.RHSNorm()
	for m := 0; m < 5; m++ {
		b.XCR[m] /= b.c.Dt
	}
	b.XCE = b.f.ErrorNorm(&b.c)

	rep := &verify.Report{Tier: verify.TierOfficial}
	if ref, ok := reference[b.Class]; ok {
		for m := 0; m < 5; m++ {
			rep.Add(fmt.Sprintf("xcr(%d)", m+1), b.XCR[m], ref.xcr[m])
		}
		for m := 0; m < 5; m++ {
			rep.Add(fmt.Sprintf("xce(%d)", m+1), b.XCE[m], ref.xce[m])
		}
	} else {
		rep.Tier = verify.TierNone
	}
	nf := float64(b.n)
	return rep, float64(b.niter) * (3478.8*nf*nf*nf - 17655.7*nf*nf + 28023.7*nf)
}

// refVals holds the 5+5 verification norms of one class.
type refVals struct {
	xcr, xce [5]float64
}

// reference holds the verification norms for classes S, W and A. The
// values below were produced by this implementation and agree with the
// published NPB verify.f constants to at least 11 significant digits
// (the implementation's flux/forcing consistency is additionally pinned
// by TestForcingBalancesExactSolution), so they are treated as
// official-tier. Classes B and C run unverified.
var reference = map[byte]refVals{
	'S': {
		xcr: [5]float64{1.7034283709543e-01, 1.2975252070025e-02, 3.2527926989478e-02, 2.6436421275150e-02, 1.9211784131744e-01},
		xce: [5]float64{4.9976913345804e-04, 4.5195666782965e-05, 7.3973765172944e-05, 7.3821238632376e-05, 8.9269630987489e-04},
	},
	'W': {
		xcr: [5]float64{1.1255904093440e+02, 1.1800075957308e+01, 2.7103297678457e+01, 2.4691749376689e+01, 2.6384278743168e+02},
		xce: [5]float64{4.4196557360080e+00, 4.6385312600017e-01, 1.0115517499669e+00, 9.2358787299439e-01, 1.0180458377175e+01},
	},
	'A': {
		xcr: [5]float64{1.0806346714637e+02, 1.1319730901221e+01, 2.5974354511582e+01, 2.3665622544679e+01, 2.5278963211749e+02},
		xce: [5]float64{4.2348416040525e+00, 4.4390282496996e-01, 9.6692480136346e-01, 8.8302063039765e-01, 9.7379901770829e+00},
	},
}
