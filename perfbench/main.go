// Command perfbench is popgraph's end-to-end sweep benchmark. For a
// named workload it generates a sweep spec from the workload seed and
// runs the real cmd/sweep process on it — spec in, graph build or
// snapshot load, compile, trials, JSONL records, summary table out —
// and checks every output. It prints one JSON result line last on
// standard output.
//
// With -trace 0 it repeats the sweep for -seconds seconds and reports
// the end-to-end metrics as medians over the repetitions. With -trace 1
// it runs the same pipeline in process with a span around each call
// into a layer, plus a set of layer probes, and reports the per-layer
// metrics. metrics.go lists both sets; the README in this directory
// explains them.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload replicate --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"popgraph/internal/results"
	"popgraph/internal/snapshot"
	"popgraph/internal/stats"
	"popgraph/internal/sweep"
)

// options are the command-line settings.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	bin, work string
}

// result is the JSON line printed last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: replicate, ladder or large-graph")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every input derives from it")
	flag.IntVar(&o.seconds, "seconds", 30, "measuring time of a -trace 0 run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run and layer probes")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the sweep and preprocess binaries")
	flag.StringVar(&o.work, "work", ".bench_build/work", "directory for specs, records, spans and the snapshot")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run prepares the workload, measures it and returns the result.
func run(o options) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return result{}, fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	dir := filepath.Join(o.work, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	snapPath := filepath.Join(o.work, "large.popg")
	var snap *snapshot.Snapshot
	if w.capped || o.trace == 1 {
		if snap, err = prepareSnapshot(o.bin, snapPath, o.seed); err != nil {
			return result{}, err
		}
	}
	spec := w.spec(o.seed, snapPath)
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return result{}, err
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return result{}, err
	}
	b := bench{o: o, w: w, spec: spec, specPath: specPath, dir: dir, snap: snap, snapPath: snapPath, s: sheet{}}
	defs := endToEnd
	if o.trace == 0 {
		err = b.endToEnd()
	} else {
		defs = perLayer
		err = b.layers()
	}
	if err != nil {
		return result{}, err
	}
	for _, n := range b.v.notes {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", n)
	}
	metrics, err := b.s.render(defs)
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   b.v.failed == 0,
		Attempted: b.v.attempted,
		Failed:    b.v.failed,
		Metrics:   metrics,
	}, nil
}

// bench is one benchmark run's state.
type bench struct {
	o        options
	w        workload
	spec     sweep.Spec
	specPath string
	dir      string
	snap     *snapshot.Snapshot
	snapPath string
	s        sheet
	v        verdict
}

// setup times sweep.Spec.Build, spec to built tasks, several times and
// returns the median in seconds with the last build's tasks. A
// collection runs before each build so no build pays for another's
// garbage.
func (b *bench) setup() (float64, []sweep.Task, error) {
	const minBuilds, maxBuilds = 5, 40
	var xs []float64
	var tasks []sweep.Task
	var spent time.Duration
	for len(xs) < minBuilds || (spent < time.Second && len(xs) < maxBuilds) {
		// Each build of a snapshot spec maps the file afresh, so those
		// builds stop at the minimum.
		if b.w.capped && len(xs) >= minBuilds {
			break
		}
		tasks = nil
		runtime.GC()
		start := time.Now()
		t, err := b.spec.Build()
		d := time.Since(start)
		if err != nil {
			return 0, nil, err
		}
		tasks, spent = t, spent+d
		xs = append(xs, d.Seconds())
	}
	return median(xs), tasks, nil
}

// endToEnd runs the sweep process repeatedly for the measuring time and
// reports medians. The first run's output is verified in full; every
// later run must reproduce its records and table byte for byte.
func (b *bench) endToEnd() error {
	setupS, tasks, err := b.setup()
	if err != nil {
		return err
	}
	b.s["setup_s"] = setupS
	trials := sweep.Trials(tasks)
	out := filepath.Join(b.dir, "records.jsonl")
	var walls, cpus, rsss, trialRates, stepRates []float64
	var digest [2][sha256.Size]byte
	var steps int64
	deadline := time.Now().Add(time.Duration(b.o.seconds) * time.Second)
	for rep := 0; rep < 3 || (rep < 100 && time.Now().Before(deadline)); rep++ {
		r, err := runSweep(b.o.bin, b.specPath, out)
		if err != nil {
			return err
		}
		d := [2][sha256.Size]byte{sha256.Sum256(r.jsonl), sha256.Sum256(r.stdout)}
		if rep == 0 {
			v, recs := checkRun(b.w, b.spec, tasks, r)
			b.v.merge(v)
			digest, steps = d, stepSum(recs)
		} else {
			b.v.attempted += trials
			if d != digest {
				v, _ := checkRun(b.w, b.spec, tasks, r)
				b.v.fail(max(v.failed, 1), "run %d differs from the first run of the same seed", rep)
			}
		}
		walls = append(walls, r.wallS)
		cpus = append(cpus, r.cpuS)
		rsss = append(rsss, r.rssMB)
		trialRates = append(trialRates, float64(trials)/r.wallS)
		stepRates = append(stepRates, float64(steps)/r.wallS/1e6)
	}
	b.s["wall_s"] = median(walls)
	b.s["cpu_s"] = median(cpus)
	b.s["peak_rss_mb"] = median(rsss)
	b.s["trials_per_s"] = median(trialRates)
	b.s["msteps_per_s"] = median(stepRates)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d sweeps of %d trials, %d steps, wall %.3f..%.3f s; failed_frac %d/%d\n",
		b.w.name, b.o.seed, len(walls), trials, steps, stats.Quantile(walls, 0), stats.Quantile(walls, 1), b.v.failed, b.v.attempted)
	return nil
}

// traceLayers are the span names whose self times are reported as
// trace.<name>_s.
var traceLayers = []string{"build", "protocol_new", "trial", "write", "aggregate", "table"}

// layers runs the sweep process once as the correctness reference, then
// alternates traced and untraced in-process pipeline runs, which must
// write the same records and table as the process, then runs the layer
// probes.
func (b *bench) layers() error {
	setupS, tasks, err := b.setup()
	if err != nil {
		return err
	}
	b.s["sweep.build_ms"] = setupS * 1e3
	ref, err := runSweep(b.o.bin, b.specPath, filepath.Join(b.dir, "records.jsonl"))
	if err != nil {
		return err
	}
	v, recs := checkRun(b.w, b.spec, tasks, ref)
	b.v.merge(v)
	b.s["sim.steps_total"] = float64(stepSum(recs))
	tasks = nil

	out := filepath.Join(b.dir, "pipeline.jsonl")
	var traced, untraced []float64
	self := make(map[string][]float64)
	var busy, idle []float64
	for rep := 0; rep < 3; rep++ {
		for _, on := range []bool{rep%2 == 0, rep%2 != 0} {
			var tr *tracer
			if on {
				tr = &tracer{run: rep}
			}
			runtime.GC()
			pr, err := runPipeline(b.spec, out, tr)
			if err != nil {
				return err
			}
			jsonl, err := os.ReadFile(out)
			if err != nil {
				return err
			}
			b.v.attempted += pr.trials
			if !bytes.Equal(jsonl, ref.jsonl) || !bytes.Equal(pr.table, ref.stdout) {
				b.v.fail(pr.trials, "in-process pipeline (traced %v) output differs from the sweep process", on)
			}
			if !on {
				untraced = append(untraced, float64(pr.wallNs))
				continue
			}
			traced = append(traced, float64(pr.wallNs))
			st := tr.selfTimes()
			for _, name := range traceLayers {
				self[name] = append(self[name], float64(st[name])/1e9)
			}
			capacity := float64(workers()) * float64(pr.poolNs)
			busy = append(busy, float64(pr.trialNs)/capacity)
			idle = append(idle, (capacity-float64(pr.trialNs))/1e9)
			if err := tr.writeJSONL(filepath.Join(b.dir, "spans.jsonl")); err != nil {
				return err
			}
		}
	}
	for _, name := range traceLayers {
		b.s["trace."+name+"_s"] = median(self[name])
	}
	b.s["trace.idle_s"] = median(idle)
	b.s["trace.overhead_frac"] = median(traced)/median(untraced) - 1
	b.s["runner.busy_frac"] = median(busy)

	if err := probeResults(recs, filepath.Join(b.dir, "probe.jsonl"), b.s); err != nil {
		return err
	}
	recs = nil
	if err := probeXrand(b.o.seed, b.snap, b.s); err != nil {
		return err
	}
	if err := probeSetup(b.o.seed, b.snapPath, b.s); err != nil {
		return err
	}
	if err := probeProtocol(b.o.seed, b.s); err != nil {
		return err
	}
	if err := probeTrialCost(b.o.seed, b.s); err != nil {
		return err
	}
	if err := probeKernels(b.o.seed, b.snap, b.s); err != nil {
		return err
	}
	rv, err := probeRunner(b.o.seed, b.s)
	if err != nil {
		return err
	}
	b.v.merge(rv)
	b.s["failed_frac"] = float64(b.v.failed) / float64(b.v.attempted)
	return nil
}

// stepSum returns the interactions the records executed.
func stepSum(recs []results.Record) int64 {
	var n int64
	for _, r := range recs {
		n += r.Steps
	}
	return n
}

// median returns the median of xs.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }
