package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"time"

	"popgraph"
	"popgraph/internal/graph"
	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/sim"
	"popgraph/internal/snapshot"
	"popgraph/internal/stats"
	"popgraph/internal/sweep"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// Each probe times calls into one module's public functions from
// outside the program. Probe inputs derive from the workload seed, so
// they are the same on every run with that seed.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// probeProtocols are the protocols whose per-instance costs are probed.
var probeProtocols = []string{"six-state", "fast", "identifier"}

// repeat calls f n times and returns the median of its results.
func repeat(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// alternate runs a and b pairs times each, swapping which runs first
// in every pair so that drift in the host's speed favours neither.
func alternate(pairs int, a, b func()) {
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			a()
			b()
		} else {
			b()
			a()
		}
	}
}

// perOp times f and returns nanoseconds per operation for ops operations.
func perOp(ops int, f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// buildTasks builds a workload's grid with a different trial count.
func buildTasks(w workload, seed uint64, snap string, trials int, maxSteps int64) ([]sweep.Task, error) {
	spec := w.spec(seed, snap)
	spec.Trials, spec.MaxSteps = trials, maxSteps
	return spec.Build()
}

// flatJobs flattens a grid into its job list and each job's task index.
func flatJobs(tasks []sweep.Task) (jobs []runner.Job, taskOf []int) {
	for ti := range tasks {
		for _, j := range tasks[ti].Jobs {
			jobs = append(jobs, j)
			taskOf = append(taskOf, ti)
		}
	}
	return jobs, taskOf
}

// probeXrand times generator block fills and alias-table draws; the
// alias table is the large snapshot's 5·10⁶-entry edge-weight table.
func probeXrand(seed uint64, snap *snapshot.Snapshot, s sheet) error {
	r := xrand.New(seed)
	buf := make([]uint64, 512)
	const fills = 100000
	s["xrand.fill_ns_per_value"] = repeat(7, func() float64 {
		return perOp(fills*len(buf), func() {
			for i := 0; i < fills; i++ {
				r.Fill(buf)
			}
		})
	})
	sink += buf[0]
	ws := snap.WeightSet("exp")
	if ws == nil {
		return fmt.Errorf("snapshot has no exp weight set")
	}
	const draws = 2000000
	s["xrand.alias_ns_per_draw"] = repeat(5, func() float64 {
		return perOp(draws, func() {
			for i := 0; i < draws; i++ {
				sink += uint64(ws.Alias.Sample(r))
			}
		})
	})
	return nil
}

// probeSetup times the set-up layers: generator graph builds of the
// replicate and ladder graphs, the snapshot load and protocol factories
// on the ladder graphs.
func probeSetup(seed uint64, snapPath string, s sheet) error {
	rep, _ := findWorkload("replicate")
	lad, _ := findWorkload("ladder")
	ladderSpecs := lad.spec(seed, "").GraphSpecs()
	specs := append(rep.spec(seed, "").GraphSpecs(), ladderSpecs...)
	var graphs []graph.Graph
	var buildErr error
	s["graph.build_ms"] = repeat(5, func() float64 {
		graphs = graphs[:0]
		start := time.Now()
		for gi, spec := range specs {
			g, err := popgraph.ParseGraph(spec, xrand.New(sweep.GraphBuildSeed(seed, gi)))
			if err != nil {
				buildErr = err
			}
			graphs = append(graphs, g)
		}
		return float64(time.Since(start).Nanoseconds()) / 1e6
	})
	if buildErr != nil {
		return buildErr
	}
	ladder := graphs[len(graphs)-len(ladderSpecs):]

	var loadErr error
	s["snapshot.mmap_load_ms"] = repeat(5, func() float64 {
		runtime.GC()
		start := time.Now()
		_, err := snapshot.LoadMmap(snapPath)
		if err != nil {
			loadErr = err
		}
		return float64(time.Since(start).Nanoseconds()) / 1e6
	})
	if loadErr != nil {
		return loadErr
	}

	var factoryErr error
	s["protocol.factory_ms"] = repeat(3, func() float64 {
		start := time.Now()
		for gi, g := range ladder {
			for _, p := range probeProtocols {
				if _, err := popgraph.ProtocolFactory(p, g, xrand.New(runner.SeedFor(seed, gi))); err != nil {
					factoryErr = err
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / 1e6
	})
	return factoryErr
}

// probeProtocol times constructing and resetting each protocol on a
// 32-node clique, the size of the replicate workload's graphs.
func probeProtocol(seed uint64, s sheet) error {
	g := popgraph.Clique(32)
	const calls = 20000
	for _, name := range probeProtocols {
		factory, err := popgraph.ProtocolFactory(name, g, xrand.New(seed))
		if err != nil {
			return err
		}
		s["protocol.new_us."+name] = repeat(5, func() float64 {
			return perOp(calls, func() {
				for i := 0; i < calls; i++ {
					sink += uint64(factory().Leaders())
				}
			}) / 1e3
		})
		p, r := factory(), xrand.New(seed)
		s["protocol.reset_us."+name] = repeat(5, func() float64 {
			return perOp(calls, func() {
				for i := 0; i < calls; i++ {
					p.Reset(g, r)
				}
			}) / 1e3
		})
	}
	return nil
}

// probeTrialCost times plan compilation and fits the per-trial fixed
// cost on the replicate graphs: for each graph, trials run on one
// reused plan at several step caps, and the intercept of mean trial
// time against mean steps executed is the cost a trial pays however
// short it is (protocol construction, Reset, kernel setup and settle).
func probeTrialCost(seed uint64, s sheet) error {
	w, _ := findWorkload("replicate")
	tasks, err := buildTasks(w, seed, "", 1, 0)
	if err != nil {
		return err
	}
	const compiles = 20000
	var compileErr error
	s["sim.compile_us"] = repeat(5, func() float64 {
		return perOp(compiles, func() {
			for i := 0; i < compiles; i++ {
				j := tasks[i%len(tasks)].Jobs[0]
				if _, err := sim.Compile(j.Graph, j.Opts); err != nil {
					compileErr = err
				}
			}
		}) / 1e3
	})
	if compileErr != nil {
		return compileErr
	}

	caps := []int64{16, 32, 64, 128, 256}
	const trials = 2000
	var intercepts []float64
	for ti, t := range tasks {
		j := t.Jobs[0]
		xs, ys := make([]float64, len(caps)), make([]float64, len(caps))
		for ci, c := range caps {
			opts := j.Opts
			opts.MaxSteps = c
			pl, err := sim.Compile(j.Graph, opts)
			if err != nil {
				return err
			}
			var steps int64
			ys[ci] = repeat(3, func() float64 {
				steps = 0
				return perOp(trials, func() {
					for i := 0; i < trials; i++ {
						res := pl.Run(j.New(), xrand.New(runner.SeedFor(seed+uint64(ti), i)))
						steps += res.Steps
					}
				})
			})
			xs[ci] = float64(steps) / trials
		}
		intercept, _, _ := stats.LinearFit(xs, ys)
		intercepts = append(intercepts, intercept/1e3)
	}
	s["sim.trial_fixed_us"] = median(intercepts)
	return nil
}

// kernelCell is one kernel timing cell: a protocol on a graph under a
// scheduler, with the scheduler kernel and protocol engine the plan
// must select.
type kernelCell struct {
	name, proto, sched string
	g                  graph.Graph
	engine, protoEng   string
	cap                int64
}

// probeKernels times each kernel cell with a bare ExecPlan.Run loop on
// one reused plan, no pool: the median over trials of wall time per
// step executed.
func probeKernels(seed uint64, snap *snapshot.Snapshot, s sheet) error {
	torus, err := popgraph.ParseGraph("torus:24x24", xrand.New(seed))
	if err != nil {
		return err
	}
	clique := popgraph.Clique(256)
	cells := []kernelCell{
		{"dense-table", "six-state", "uniform", torus, "dense-uniform", "table", 1 << 21},
		{"clique-table", "six-state", "uniform", clique, "clique-uniform", "table", 1 << 21},
		{"dense-step-fast", "fast", "uniform", torus, "dense-uniform", "step", 1 << 21},
		{"clique-step-fast", "fast", "uniform", clique, "clique-uniform", "step", 1 << 21},
		{"dense-step-identifier", "identifier", "uniform", torus, "dense-uniform", "step", 1 << 21},
		{"dense-table-large", "six-state", "uniform", snap.Graph, "dense-uniform", "table", 1 << 22},
		{"weighted-table-large", "six-state", "weighted:snap", snap.Graph, "weighted", "table", 1 << 22},
	}
	for ci, c := range cells {
		sched, err := popgraph.ParseScheduler(c.sched, c.g, xrand.New(seed))
		if err != nil {
			return err
		}
		factory, err := popgraph.ProtocolFactory(c.proto, c.g, xrand.New(seed))
		if err != nil {
			return err
		}
		pl, err := sim.Compile(c.g, sim.Options{MaxSteps: c.cap, Scheduler: sched})
		if err != nil {
			return err
		}
		if pl.Engine() != c.engine || pl.ProtocolEngine(factory()) != c.protoEng {
			return fmt.Errorf("kernel cell %s compiled to %s/%s, want %s/%s",
				c.name, pl.Engine(), pl.ProtocolEngine(factory()), c.engine, c.protoEng)
		}
		var xs []float64
		deadline := time.Now().Add(400 * time.Millisecond)
		for i := 0; i < 3 || (i < 200 && time.Now().Before(deadline)); i++ {
			p, r := factory(), xrand.New(runner.SeedFor(seed+uint64(ci), i))
			start := time.Now()
			res := pl.Run(p, r)
			xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(res.Steps))
		}
		s["sim.kernel_ns_per_step."+c.name] = median(xs)
	}
	return nil
}

// probeRunner measures the pool on the replicate grid at 2000 trials a
// cell: solo against lockstep-8 execution through one shared pool
// (outcomes must agree), allocation per trial, telemetry on against
// off, and per-job dispatch cost against a serial loop over one-step
// trials.
func probeRunner(seed uint64, s sheet) (verdict, error) {
	var v verdict
	w, _ := findWorkload("replicate")
	tasks, err := buildTasks(w, seed, "", 2000, 0)
	if err != nil {
		return v, err
	}
	jobs, taskOf := flatJobs(tasks)
	group := func(i int) int { return taskOf[i] }
	pool := runner.Pool{Workers: workers()}
	rate := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(len(jobs)) / time.Since(start).Seconds()
	}
	var solo, lock []float64
	var soloOut, lockOut []runner.Outcome
	alternate(3,
		func() { solo = append(solo, rate(func() { soloOut = pool.Run(jobs) })) },
		func() { lock = append(lock, rate(func() { lockOut = pool.RunBatched(jobs, 8, group) })) })
	v.attempted += len(jobs)
	for i := range jobs {
		if soloOut[i].Failed() || !soloOut[i].Same(lockOut[i]) {
			v.fail(1, "replicate job %d: solo %+v, lockstep-8 %+v", i, soloOut[i], lockOut[i])
		}
	}
	s["sim.solo_trials_per_s"] = median(solo)
	s["sim.lockstep8_trials_per_s"] = median(lock)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pool.Stream(jobs, func(int, runner.Outcome) {})
	runtime.ReadMemStats(&after)
	s["runner.alloc_bytes_per_trial"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(jobs))

	metered := runner.Pool{Workers: workers(), Meter: new(telemetry.Counters)}
	var off, on []float64
	alternate(3,
		func() { off = append(off, rate(func() { pool.Stream(jobs, func(int, runner.Outcome) {}) })) },
		func() { on = append(on, rate(func() { metered.Stream(jobs, func(int, runner.Outcome) {}) })) })
	s["telemetry.overhead_frac"] = median(off)/median(on) - 1

	tiny, err := buildTasks(w, seed, "", 3000, 1)
	if err != nil {
		return v, err
	}
	tinyJobs, _ := flatJobs(tiny)
	single := runner.Pool{Workers: 1}
	var serial, pooled []float64
	alternate(5,
		func() {
			serial = append(serial, perOp(len(tinyJobs), func() {
				for _, j := range tinyJobs {
					res, _ := sim.RunE(j.Graph, j.New(), xrand.New(j.Seed), j.Opts)
					sink += uint64(res.Steps)
				}
			}))
		},
		func() {
			pooled = append(pooled, perOp(len(tinyJobs), func() {
				single.Stream(tinyJobs, func(int, runner.Outcome) {})
			}))
		})
	s["runner.dispatch_us_per_job"] = (median(pooled) - median(serial)) / 1e3
	return v, nil
}

// probeResults times JSONL record writing and aggregation over a
// workload's records, cycling through them until at least 200000
// records were processed.
func probeResults(recs []results.Record, path string, s sheet) error {
	if len(recs) == 0 {
		return fmt.Errorf("no records to probe")
	}
	rounds := max(1, (200000+len(recs)-1)/len(recs))
	n := rounds * len(recs)
	var bytesWritten int64
	var writeErr error
	s["results.write_ns_per_record"] = repeat(3, func() float64 {
		f, err := os.Create(path)
		if err != nil {
			writeErr = err
			return 0
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 64*1024)
		ns := perOp(n, func() {
			for r := 0; r < rounds; r++ {
				for _, rec := range recs {
					if err := results.Write(bw, []results.Record{rec}); err != nil {
						writeErr = err
					}
				}
			}
			if err := bw.Flush(); err != nil {
				writeErr = err
			}
		})
		if info, err := f.Stat(); err == nil {
			bytesWritten = info.Size()
		} else {
			writeErr = err
		}
		return ns
	})
	if writeErr != nil {
		return writeErr
	}
	s["results.bytes_per_record"] = float64(bytesWritten) / float64(n)
	s["results.aggregate_ns_per_record"] = repeat(3, func() float64 {
		return perOp(n, func() {
			acc := results.NewAccumulator()
			for r := 0; r < rounds; r++ {
				for _, rec := range recs {
					acc.Add(rec)
				}
			}
			sink += uint64(len(acc.Groups()))
		})
	})
	return os.Remove(path)
}
