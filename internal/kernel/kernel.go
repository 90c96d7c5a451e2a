// Package kernel is the one driver every NPB benchmark runs under. A
// benchmark implements the small Benchmark contract — untimed setup, a
// fixed number of timed steps, untimed verification — and Run owns
// everything around it: building the team from one instrumentation
// bundle, watching the context, timing the step loop, computing Mop/s
// and arming the phase brackets the steps charge.
//
// The package imports no benchmark, so a benchmark's own tests can run
// it through Run without an import cycle.
package kernel

import (
	"context"
	"errors"
	"time"

	"npbgo/internal/obs"
	"npbgo/internal/perfcount"
	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/trace"
	"npbgo/internal/verify"
)

// Benchmark is the contract between one NPB benchmark and the driver.
// The timed section is exactly the Steps() calls of Step, so anything
// the NPB source times outside its main loop (FT's forward transform,
// MG's first resid and final norm) belongs to the first or last step.
// Implementations embed Phases, which supplies the unexported method.
type Benchmark interface {
	// Threads returns the team size the benchmark was built for.
	Threads() int
	// Setup runs the untimed prologue on tm: initialization, the
	// warm-up step and the reset that follows it.
	Setup(tm *team.Team)
	// Steps returns the number of timed steps.
	Steps() int
	// Step runs timed step i, 0 <= i < Steps(), on tm.
	Step(tm *team.Team, i int)
	// Verify runs the untimed verification after the last step and
	// returns its report and the NPB operation count of the timed
	// section.
	Verify(tm *team.Team) (rep *verify.Report, ops float64)

	phases() *Phases
}

// Phases brackets the named master-side phases of a benchmark's steps.
// Run arms it for the timed section only: each Begin/End pair is then
// charged to the run's timer set and recorded as a phase span on the
// tracer's master track. Disarmed, as outside Run, both are no-ops.
type Phases struct {
	timers *timer.Set
	tr     *trace.Tracer
}

func (p *Phases) phases() *Phases { return p }

// Begin starts the named phase.
func (p *Phases) Begin(name string) {
	if p.timers != nil {
		p.timers.Start(name)
	}
	if p.tr != nil {
		p.tr.BeginPhase(name)
	}
}

// End ends the named phase.
func (p *Phases) End(name string) {
	if p.tr != nil {
		p.tr.EndPhase(name)
	}
	if p.timers != nil {
		p.timers.Stop(name)
	}
}

// Timers returns the armed timer set, nil when profiling is off. The
// set is concurrent, so region bodies may charge per-worker phases
// (timer.Worker names) to it directly.
func (p *Phases) Timers() *timer.Set { return p.timers }

// Config is the instrumentation bundle of one run. The zero value runs
// bare: static schedule, no metrics, no trace, no counters, no profile.
type Config struct {
	Obs      *obs.Recorder      // per-worker runtime metrics
	Trace    *trace.Tracer      // event timelines and phase spans
	Counters *perfcount.Sampler // hardware counters, sized to the team
	Schedule team.Schedule      // loop schedule of the team
	Profile  bool               // collect the per-phase profile in Result.Timers
}

// Result reports one driven run.
type Result struct {
	Elapsed time.Duration  // wall time of the timed steps
	Mops    float64        // NPB Mop/s figure of merit
	Verify  *verify.Report // nil when the run was cancelled
	Timers  *timer.Set     // per-phase profile, nil unless Config.Profile
}

// Run drives b once: it builds the team, runs Setup, times the Steps()
// steps, then verifies. When ctx is done the team is cancelled and Run
// returns the context's error after the setup or step in flight, with
// the partial Elapsed and no verification. A worker panic re-raises as
// a *team.PanicError, as Team.Run does.
func Run(ctx context.Context, b Benchmark, cfg Config) (Result, error) {
	var res Result
	tm := team.New(b.Threads(), team.WithRecorder(cfg.Obs), team.WithTracer(cfg.Trace),
		team.WithCounters(cfg.Counters), team.WithSchedule(cfg.Schedule))
	defer tm.Close()
	defer tm.WatchContext(ctx)()
	if ctx != nil && ctx.Err() != nil {
		return res, ctx.Err()
	}

	b.Setup(tm)
	if tm.Cancelled() {
		return res, cancelled(ctx)
	}

	if cfg.Profile {
		res.Timers = timer.NewConcurrentSet()
	}
	ph := b.phases()
	*ph = Phases{timers: res.Timers, tr: cfg.Trace}
	start := time.Now()
	for i, n := 0, b.Steps(); i < n && !tm.Cancelled(); i++ {
		b.Step(tm, i)
	}
	res.Elapsed = time.Since(start)
	*ph = Phases{}
	if tm.Cancelled() {
		return res, cancelled(ctx)
	}

	rep, ops := b.Verify(tm)
	res.Verify = rep
	if s := res.Elapsed.Seconds(); s > 0 {
		res.Mops = ops * 1e-6 / s
	}
	return res, nil
}

// cancelled returns the reason the run's team was cancelled.
func cancelled(ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return errors.New("kernel: team cancelled")
}
