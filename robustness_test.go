package npbgo_test

import (
	"context"
	"errors"
	"runtime/debug"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/suite"
	"npbgo/internal/team"
)

// TestRunContextDeadlineCancelsCGMidIteration slows CG's outer loop
// with an injected per-iteration delay so a run would take seconds, and
// checks a short deadline stops it within roughly one iteration.
func TestRunContextDeadlineCancelsCGMidIteration(t *testing.T) {
	fault.Activate(1, fault.Rule{
		Site: "cg.iter", Kind: fault.KindDelay, Count: -1, Sleep: 50 * time.Millisecond,
	})
	defer fault.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 2})
	took := time.Since(start)
	if err == nil {
		t.Fatal("deadline-bounded run reported success")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrCancelled {
		t.Fatalf("err = %#v, want *RunError kind %q", err, npbgo.ErrCancelled)
	}
	if re.Benchmark != npbgo.CG || re.Class != 'S' || re.Threads != 2 {
		t.Fatalf("RunError cell context wrong: %+v", re)
	}
	// 15 iterations x 50ms of injected delay alone would be 750ms; a
	// prompt cancellation returns within a small multiple of one
	// iteration after the 120ms deadline.
	if took > 10*time.Second {
		t.Fatalf("run not cancelled promptly: took %v", took)
	}
}

// TestRunContextIsolatesInjectedWorkerPanic proves a worker panic in a
// real benchmark region surfaces as a typed error, not a crash.
func TestRunContextIsolatesInjectedWorkerPanic(t *testing.T) {
	fault.Activate(1, fault.Rule{Site: "team.region", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	_, err := npbgo.RunContext(context.Background(),
		npbgo.Config{Benchmark: npbgo.EP, Class: 'S', Threads: 4})
	if err == nil {
		t.Fatal("worker panic swallowed")
	}
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrPanic {
		t.Fatalf("err = %v, want *RunError kind %q", err, npbgo.ErrPanic)
	}
	var pe *team.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cause %v does not unwrap to *team.PanicError", re.Cause)
	}
	if _, ok := pe.Value.(fault.InjectedPanic); !ok {
		t.Fatalf("panic value %v (%T), want fault.InjectedPanic", pe.Value, pe.Value)
	}
}

// TestRunContextVerificationFailureIsTyped corrupts EP's verification
// value and checks the mismatch comes back as a verification RunError
// alongside the failed Result.
func TestRunContextVerificationFailureIsTyped(t *testing.T) {
	fault.Activate(1, fault.Rule{Site: "ep.verify", Kind: fault.KindCorrupt, Count: -1})
	defer fault.Reset()
	res, err := npbgo.RunContext(context.Background(),
		npbgo.Config{Benchmark: npbgo.EP, Class: 'S', Threads: 2})
	if err == nil {
		t.Fatal("corrupted verification accepted")
	}
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrVerification {
		t.Fatalf("err = %v, want kind %q", err, npbgo.ErrVerification)
	}
	if !res.Failed {
		t.Fatal("Result.Failed not set on verification mismatch")
	}
}

// TestRunValidatesConfigUpFront: bad thread counts and classes must
// produce descriptive errors, not panics deep inside team.New.
func TestRunValidatesConfigUpFront(t *testing.T) {
	cases := []npbgo.Config{
		{Benchmark: npbgo.CG, Threads: -3},
		{Benchmark: npbgo.CG, Class: 'Z'},
		{Benchmark: "QQ"},
	}
	for _, cfg := range cases {
		res, err := npbgo.Run(cfg) // must not panic
		if err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
		var re *npbgo.RunError
		if !errors.As(err, &re) || re.Kind != npbgo.ErrConfig {
			t.Fatalf("config %+v: err = %v, want *RunError kind %q", cfg, err, npbgo.ErrConfig)
		}
		_ = res
	}
}

// TestRunContextNilAndDoneContexts covers the edges of context handling.
func TestRunContextNilAndDoneContexts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: npbgo.EP, Class: 'S'})
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrCancelled {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}
	// A nil context behaves like Background.
	res, err := npbgo.RunContext(nil, npbgo.Config{Benchmark: npbgo.EP, Class: 'S'}) //nolint:staticcheck
	if err != nil || !res.Verified {
		t.Fatalf("nil ctx run failed: %v %+v", err, res)
	}
}

// TestRunContextDeadlineCancelsFTAndMG exercises the cancellation
// plumbing of the other two cancellable kernels.
func TestRunContextDeadlineCancelsFTAndMG(t *testing.T) {
	// Class W: large enough that a 1ms deadline always lands mid-run
	// (class S MG can finish inside the deadline on a fast host).
	for _, b := range []npbgo.Benchmark{npbgo.FT, npbgo.MG} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: b, Class: 'W', Threads: 2})
		cancel()
		if err == nil {
			t.Fatalf("%s: expired deadline produced no error", b)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v", b, err)
		}
	}
}

// TestRunContextDeadlineStopsEveryBenchmark gives every benchmark a
// 200ms deadline at a class whose uncut run lasts over a second and
// checks the run comes back cancelled within one timed step of the
// deadline — or at the end of the untimed construction and setup, when
// the deadline lands there — plus slack. The setup and step lengths are
// measured on the same host just before. EP's whole sweep is one step
// whose workers poll at every batch, so it gets the slack alone.
func TestRunContextDeadlineStopsEveryBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("class W/A runs in -short mode")
	}
	const (
		threads  = 2
		deadline = 200 * time.Millisecond
		slack    = 300 * time.Millisecond
	)
	cases := []struct {
		bench   npbgo.Benchmark
		class   byte
		perStep bool // false: the step polls the team itself (EP)
	}{
		{npbgo.BT, 'W', true}, {npbgo.SP, 'W', true}, {npbgo.LU, 'W', true},
		{npbgo.FT, 'A', true}, {npbgo.MG, 'A', true}, {npbgo.CG, 'A', true},
		{npbgo.IS, 'A', true}, {npbgo.EP, 'W', false},
	}
	for _, c := range cases {
		limit := deadline + slack
		if c.perStep {
			setup, step := setupAndStep(t, c.bench, c.class, threads)
			limit = max(setup, deadline+step) + slack
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: c.bench, Class: c.class, Threads: threads})
		took := time.Since(start)
		cancel()
		var re *npbgo.RunError
		if !errors.As(err, &re) || re.Kind != npbgo.ErrCancelled || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s.%c: err = %v, want *RunError kind %q wrapping DeadlineExceeded",
				c.bench, c.class, err, npbgo.ErrCancelled)
			continue
		}
		if took > limit {
			t.Errorf("%s.%c: returned %v after start, want within %v", c.bench, c.class, took, limit)
		}
	}
}

// setupAndStep times one benchmark's construction plus untimed setup,
// and its first timed step (the longest for FT and MG, which time
// their prologue there), outside the driver.
func setupAndStep(t *testing.T, bench npbgo.Benchmark, class byte, threads int) (setup, step time.Duration) {
	t.Helper()
	defer debug.FreeOSMemory()
	start := time.Now()
	b, err := suite.New(string(bench), class, threads, suite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm := team.New(threads)
	defer tm.Close()
	b.Setup(tm)
	setup = time.Since(start)
	start = time.Now()
	b.Step(tm, 0)
	return setup, time.Since(start)
}
