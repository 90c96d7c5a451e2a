package kernel

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"npbgo/internal/team"
	"npbgo/internal/trace"
	"npbgo/internal/verify"
)

// fake is a minimal Benchmark that records what the driver called and
// charges one phase in Setup and one per Step.
type fake struct {
	Phases
	steps    int
	setups   int
	ran      []int
	verified bool
	onStep   func(tm *team.Team, i int)
}

func (f *fake) Threads() int { return 2 }

func (f *fake) Setup(*team.Team) {
	f.setups++
	f.Begin("setup")
	f.End("setup")
}

func (f *fake) Steps() int { return f.steps }

func (f *fake) Step(tm *team.Team, i int) {
	f.Begin("step")
	tm.Run(func(int) {})
	f.ran = append(f.ran, i)
	if f.onStep != nil {
		f.onStep(tm, i)
	}
	f.End("step")
}

func (f *fake) Verify(*team.Team) (*verify.Report, float64) {
	f.verified = true
	rep := &verify.Report{Tier: verify.TierOfficial}
	rep.Add("x", 1, 1)
	return rep, 1e6
}

func TestRunDrivesEveryStepAndBracketsOnlyTheTimedSection(t *testing.T) {
	f := &fake{steps: 4}
	tr := trace.New(2)
	res, err := Run(context.Background(), f, Config{Profile: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if f.setups != 1 || len(f.ran) != 4 || f.ran[3] != 3 || !f.verified {
		t.Fatalf("setups %d, steps %v, verified %v", f.setups, f.ran, f.verified)
	}
	if !res.Verify.Passed() || res.Elapsed <= 0 || res.Mops <= 0 {
		t.Fatalf("result %+v", res)
	}
	if got := res.Timers.Laps("step"); got != 4 {
		t.Fatalf("step laps = %d, want 4", got)
	}
	if got := res.Timers.Laps("setup"); got != 0 {
		t.Fatalf("untimed setup phase charged %d laps", got)
	}
	spans := 0
	s := tr.Snapshot()
	for _, e := range s.Tracks[s.Workers].Events {
		if e.Kind == trace.KindPhaseBegin {
			spans++
		}
	}
	if spans != 4 {
		t.Fatalf("%d phase spans on the master track, want 4", spans)
	}
	if f.Timers() != nil {
		t.Fatal("phase brackets still armed after Run")
	}
}

func TestRunStopsAfterTheStepInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &fake{steps: 100}
	f.onStep = func(tm *team.Team, i int) {
		if i == 2 {
			cancel()
			for !tm.Cancelled() { // the context watcher cancels asynchronously
				runtime.Gosched()
			}
		}
	}
	res, err := Run(ctx, f, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(f.ran) != 3 || f.verified || res.Verify != nil {
		t.Fatalf("steps %v, verified %v after cancellation", f.ran, f.verified)
	}
}

func TestRunSkipsSetupOnDoneContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &fake{steps: 1}
	if _, err := Run(ctx, f, Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if f.setups != 0 || len(f.ran) != 0 {
		t.Fatalf("setups %d, steps %v on a done context", f.setups, f.ran)
	}
}
