package npbgo_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"npbgo"
	"npbgo/internal/trace"
)

// runTraced runs one class-S cell with the tracer on and returns the
// verified result's snapshot.
func runTraced(t *testing.T, bench npbgo.Benchmark, threads int) *trace.Snapshot {
	t.Helper()
	res, err := npbgo.Run(npbgo.Config{Benchmark: bench, Class: 'S', Threads: threads, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("%s.S failed verification under tracing: tier %s", bench, res.Tier)
	}
	if res.Trace == nil {
		t.Fatalf("%s.S: Config.Trace set but Result.Trace is nil", bench)
	}
	return res.Trace
}

// TestTraceDisabledByDefault: without Config.Trace the result carries
// no snapshot — the disabled path really is off.
func TestTraceDisabledByDefault(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: "IS", Class: 'S', Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("Result.Trace set without Config.Trace")
	}
}

// TestTracedISExportsValidChrome is the tentpole acceptance check: a
// class-S IS run (the suite's barrier-heavy kernel) with tracing on
// must export Chrome/Perfetto JSON that passes structural validation —
// paired, monotonic, strictly nested spans per worker track — and must
// carry barrier flow events linking arrive to release.
func TestTracedISExportsValidChrome(t *testing.T) {
	s := runTraced(t, "IS", 2)
	var buf bytes.Buffer
	if err := s.WriteChrome(&buf, "IS.S t2"); err != nil {
		t.Fatal(err)
	}
	info, err := trace.Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("IS.S trace fails validation: %v", err)
	}
	if info.FlowStarts < 1 || info.FlowEnds < 1 {
		t.Fatalf("no barrier flow events: %d starts, %d ends", info.FlowStarts, info.FlowEnds)
	}
	names := map[string]bool{}
	workers := 0
	for _, tk := range info.Tracks {
		names[tk.Name] = true
		if tk.Name == "worker 0" || tk.Name == "worker 1" {
			workers++
			if tk.Slices == 0 {
				t.Errorf("track %q recorded no slices", tk.Name)
			}
		}
	}
	if workers != 2 || !names["master"] {
		t.Fatalf("track layout wrong: %v", names)
	}
}

// TestTracedLURecordsPipelineAndPhases: LU's pipelined SSOR sweeps are
// why the tracer exists; its trace must carry pipeline post events on
// the worker tracks and the named phase spans on the master track, and
// still export a valid file.
func TestTracedLURecordsPipelineAndPhases(t *testing.T) {
	s := runTraced(t, "LU", 2)
	posts := 0
	for id := 0; id < s.Workers; id++ {
		for _, e := range s.Tracks[id].Events {
			if e.Kind == trace.KindPipeSignal {
				posts++
			}
		}
	}
	if posts == 0 {
		t.Fatal("no pipeline post events on any worker track")
	}
	phases := map[string]int{}
	master := s.Tracks[s.Workers]
	for _, e := range master.Events {
		if e.Kind == trace.KindPhaseBegin {
			phases[e.Name]++
		}
	}
	for _, want := range []string{"sweeps", "rhs", "scale+update"} {
		if phases[want] == 0 {
			t.Errorf("master track has no %q phase span (saw %v)", want, phases)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteChrome(&buf, "LU.S t2"); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("LU.S trace fails validation: %v", err)
	}
}

// TestTracedSerialRun: the n==1 inline path must produce a coherent,
// exportable timeline too (regions and blocks, no barrier flows).
func TestTracedSerialRun(t *testing.T) {
	s := runTraced(t, "EP", 1)
	if len(s.Tracks[0].Events) == 0 {
		t.Fatal("serial run recorded no worker events")
	}
	var buf bytes.Buffer
	if err := s.WriteChrome(&buf, "EP.S serial"); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("serial trace fails validation: %v", err)
	}
}

// TestEveryBenchmarkReportsPhases: with Profile every benchmark reports
// a non-empty phase profile, and with Trace each master-side phase of
// that profile is a phase span on the master track and vice versa. EP's
// phases are per-worker (t_batch/w<id>) and stay off the master track.
func TestEveryBenchmarkReportsPhases(t *testing.T) {
	for _, b := range npbgo.Benchmarks() {
		res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'S', Threads: 2, Profile: true, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if len(res.Phases) == 0 {
			t.Errorf("%s: Profile set but Result.Phases is empty", b)
		}
		profiled := map[string]bool{}
		for _, p := range res.Phases {
			if !strings.Contains(p.Name, "/w") {
				profiled[p.Name] = true
			}
		}
		spans := map[string]bool{}
		for _, e := range res.Trace.Tracks[res.Trace.Workers].Events {
			if e.Kind == trace.KindPhaseBegin {
				spans[e.Name] = true
			}
		}
		if !reflect.DeepEqual(profiled, spans) {
			t.Errorf("%s: profiled phases %v, trace phase spans %v", b, profiled, spans)
		}
		var buf bytes.Buffer
		if err := res.Trace.WriteChrome(&buf, string(b)+".S t2"); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Validate(buf.Bytes()); err != nil {
			t.Errorf("%s.S trace fails validation: %v", b, err)
		}
	}
}
