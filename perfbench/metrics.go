package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"mops", "Mop/s", "higher"},    // geomean NPB Mop/s of the 2-thread cells
	{"mops_t1", "Mop/s", "higher"}, // the same over the 1-thread cells
	{"timed_s", "s", "lower"},      // sum of the cells' timed sections
	{"setup_s", "s", "lower"},      // sum of RunContext wall minus timed
	{"peak_rss_mb", "MB", "lower"}, // process VmHWM
}

// phases selects the Result.Phases entries the traced run reports at
// t2: the ADI phases of BT and SP and LU's SSOR sweeps and RHS, each on
// the largest class a workload runs them at.
var phases = []struct {
	Cell  cell
	Names []string
}{
	{cell{"BT", 'W'}, []string{"rhs", "xsolve", "ysolve", "zsolve"}},
	{cell{"SP", 'S'}, []string{"rhs", "xsolve", "ysolve", "zsolve"}},
	{cell{"LU", 'S'}, []string{"sweeps", "rhs"}},
}

// teamMicro, l0Micro and hostMetrics are the traced run's
// workload-independent layer measurements.
var (
	teamMicro = []metricDef{
		{"team.fork_join_ns.w1", "ns", "lower"},
		{"team.fork_join_ns.w2", "ns", "lower"},
		{"team.barrier_ns", "ns", "lower"},
		{"team.reduce_ns", "ns", "lower"},
		{"team.pipeline_ns", "ns", "lower"},
	}
	l0Micro = []metricDef{
		{"l0.compute_rhs_ms", "ms", "lower"},
		{"l0.flux_visc_jac_ns", "ns", "lower"},
		{"l0.transform3d_ms", "ms", "lower"},
		{"l0.vcycle_ms", "ms", "lower"},
		{"l0.vranlc_ns", "ns", "lower"},
		{"l0.ops.assignment_ns", "ns", "lower"},
		{"l0.ops.first_order_ns", "ns", "lower"},
		{"l0.ops.second_order_ns", "ns", "lower"},
		{"l0.ops.matvec_ns", "ns", "lower"},
		{"l0.ops.reduce_sum_ns", "ns", "lower"},
	}
	hostMetrics = []metricDef{
		{"mem.triad_gbs", "GB/s", "higher"},
		{"host.ref_ms", "ms", "lower"},
		{"host.steal_pct", "%", "lower"},
		{"trace.overhead_pct", "%", "lower"},
	}
)

// allCells lists every workload's cells once, in workload order.
func allCells() []cell {
	var out []cell
	for _, w := range workloads {
		out = append(out, w.Cells...)
	}
	return out
}

// perLayer is every metric a traced run prints, whichever workload it
// was given: the traced run covers all cells so each layer is measured
// on the cells that exercise it.
func perLayer() []metricDef {
	var out []metricDef
	cs := allCells()
	for _, c := range cs {
		p := "cell." + c.String()
		out = append(out, metricDef{p + ".t1.timed_s", "s", "lower"},
			metricDef{p + ".t2.timed_s", "s", "lower"}, metricDef{p + ".t2.untimed_s", "s", "lower"})
	}
	for _, c := range cs {
		out = append(out, metricDef{"new." + c.String() + "_s", "s", "lower"})
	}
	for _, p := range phases {
		for _, n := range p.Names {
			out = append(out, metricDef{"phase." + p.Cell.String() + "." + n + "_s", "s", "lower"})
		}
	}
	out = append(out, teamMicro...)
	for _, c := range cs {
		p := "team." + c.String()
		out = append(out, metricDef{p + ".regions", "count", "lower"},
			metricDef{p + ".wait_share", "ratio", "lower"}, metricDef{p + ".speedup_t2", "ratio", "higher"})
	}
	out = append(out, l0Micro...)
	return append(out, hostMetrics...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect attaches units from defs to vals. It returns an error naming
// every declared metric without a value and every value not declared,
// so a run can never print a name BENCHMARK.json does not hold.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing, extra []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	for n := range vals {
		if _, ok := out[n]; !ok {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return out, fmt.Errorf("metrics without a value: [%s]; undeclared metrics: [%s]",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return out, nil
}
