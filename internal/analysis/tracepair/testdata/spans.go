// Golden fixtures for the tracepair analyzer: phase spans opened but
// never closed. Never built by the go tool; type-checked by
// analysistest.
package fixture

import (
	"npbgo/internal/kernel"
	"npbgo/internal/trace"
)

// unclosed leaks the "sweeps" span: the exported trace fails
// validation.
func unclosed(tr *trace.Tracer) {
	tr.BeginPhase("sweeps") // want `no matching EndPhase`
	work()
}

// paired is the normal bracketed phase.
func paired(tr *trace.Tracer) {
	tr.BeginPhase("sweeps")
	work()
	tr.EndPhase("sweeps")
}

// deferred closes via defer, which counts.
func deferred(tr *trace.Tracer) {
	tr.BeginPhase("total")
	defer tr.EndPhase("total")
	work()
}

// dynamicName is a near miss: parameterized helpers own the pairing,
// so non-literal names are skipped.
func dynamicName(tr *trace.Tracer, name string) {
	tr.BeginPhase(name)
	work()
}

// mismatched pairs the wrong names: "setup" never closes.
func mismatched(tr *trace.Tracer) {
	tr.BeginPhase("setup") // want `no matching EndPhase`
	work()
	tr.EndPhase("teardown")
}

func work() {}

// bench embeds the driver's phase bracket, as every benchmark does.
type bench struct {
	kernel.Phases
}

// promotedUnclosed leaks "rhs" through the embedded kernel.Phases.
func (b *bench) promotedUnclosed() {
	b.Begin("rhs") // want `Phases.Begin\("rhs"\) has no matching End`
	work()
	b.End("xsolve")
}

// promotedPaired is a step's normal bracket.
func (b *bench) promotedPaired() {
	b.Begin("rhs")
	work()
	b.End("rhs")
}

// crossKinds does not let a tracer close pair a bracket open.
func (b *bench) crossKinds(tr *trace.Tracer) {
	b.Begin("sweeps") // want `Phases.Begin\("sweeps"\) has no matching End`
	tr.EndPhase("sweeps")
}
