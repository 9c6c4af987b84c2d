package main

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// metricDef describes one reported metric. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move when its layer gets faster or slower.
	Moves string
}

// endToEnd are the metrics a sweep user sees, printed with -trace 0.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "trials_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "msteps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// perLayer are the per-layer metrics, printed with -trace 1: layer
// probes timed from outside the program plus the traced run's self
// times.
var perLayer = []metricDef{
	{Name: "xrand.fill_ns_per_value", Unit: "ns", Better: "lower", Moves: "msteps_per_s on large-graph and ladder"},
	{Name: "xrand.alias_ns_per_draw", Unit: "ns", Better: "lower", Moves: "msteps_per_s on large-graph (weighted:snap cell)"},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on ladder and replicate"},
	{Name: "snapshot.mmap_load_ms", Unit: "ms", Better: "lower", Moves: "setup_s on large-graph"},
	{Name: "protocol.factory_ms", Unit: "ms", Better: "lower", Moves: "setup_s on ladder"},
	{Name: "protocol.new_us.six-state", Unit: "us", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "protocol.new_us.fast", Unit: "us", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "protocol.new_us.identifier", Unit: "us", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "protocol.reset_us.six-state", Unit: "us", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "protocol.reset_us.fast", Unit: "us", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "protocol.reset_us.identifier", Unit: "us", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "sim.compile_us", Unit: "us", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "sim.trial_fixed_us", Unit: "us", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "sim.kernel_ns_per_step.dense-table", Unit: "ns", Better: "lower", Moves: "msteps_per_s on ladder; no change on replicate"},
	{Name: "sim.kernel_ns_per_step.clique-table", Unit: "ns", Better: "lower", Moves: "msteps_per_s on ladder; no change on replicate"},
	{Name: "sim.kernel_ns_per_step.dense-step-fast", Unit: "ns", Better: "lower", Moves: "msteps_per_s on ladder; no change on replicate"},
	{Name: "sim.kernel_ns_per_step.clique-step-fast", Unit: "ns", Better: "lower", Moves: "msteps_per_s on ladder; no change on replicate"},
	{Name: "sim.kernel_ns_per_step.dense-step-identifier", Unit: "ns", Better: "lower", Moves: "msteps_per_s on ladder; no change on replicate"},
	{Name: "sim.kernel_ns_per_step.dense-table-large", Unit: "ns", Better: "lower", Moves: "msteps_per_s on large-graph; no change on replicate"},
	{Name: "sim.kernel_ns_per_step.weighted-table-large", Unit: "ns", Better: "lower", Moves: "msteps_per_s on large-graph; no change on replicate"},
	{Name: "sim.solo_trials_per_s", Unit: "1/s", Better: "higher", Moves: "trials_per_s on replicate"},
	{Name: "sim.lockstep8_trials_per_s", Unit: "1/s", Better: "higher", Moves: "trials_per_s on replicate (if sweeps ran with -batch 8)"},
	{Name: "sim.steps_total", Unit: "count", Better: "higher", Moves: "denominator of msteps_per_s on this workload; fixed by the seed"},
	{Name: "runner.dispatch_us_per_job", Unit: "us", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "runner.alloc_bytes_per_trial", Unit: "B", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "runner.busy_frac", Unit: "ratio", Better: "higher", Moves: "wall_s on ladder (stragglers) and replicate (serial emit goroutine)"},
	{Name: "results.write_ns_per_record", Unit: "ns", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "results.aggregate_ns_per_record", Unit: "ns", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "results.bytes_per_record", Unit: "B", Better: "lower", Moves: "trials_per_s on replicate"},
	{Name: "telemetry.overhead_frac", Unit: "ratio", Better: "lower", Moves: "wall_s on replicate"},
	{Name: "sweep.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on this workload (all three)"},
	{Name: "trace.build_s", Unit: "s", Better: "lower", Moves: "setup_s and wall_s on this workload"},
	{Name: "trace.protocol_new_s", Unit: "s", Better: "lower", Moves: "wall_s and trials_per_s on replicate"},
	{Name: "trace.trial_s", Unit: "s", Better: "lower", Moves: "wall_s and msteps_per_s on this workload"},
	{Name: "trace.write_s", Unit: "s", Better: "lower", Moves: "wall_s on replicate"},
	{Name: "trace.aggregate_s", Unit: "s", Better: "lower", Moves: "wall_s on replicate"},
	{Name: "trace.table_s", Unit: "s", Better: "lower", Moves: "wall_s on this workload"},
	{Name: "trace.idle_s", Unit: "s", Better: "lower", Moves: "wall_s on ladder (stragglers) and replicate"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none: the cost of the benchmark's own spans"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Moves: "correct: crashed trials plus verification mismatches over trials attempted"},
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sheet collects metric values and checks them against a definition
// list, so a run can print neither an unknown name nor miss one.
type sheet map[string]float64

// render returns the metrics of defs with their units. It fails when a
// defined metric is missing, a value is not a finite number, or the
// sheet holds a name defs does not define.
func (s sheet) render(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := s[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v is not a finite number", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	var extra []string
	for _, name := range slices.Sorted(maps.Keys(s)) {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		return nil, fmt.Errorf("metrics %v are not defined", extra)
	}
	return out, nil
}
