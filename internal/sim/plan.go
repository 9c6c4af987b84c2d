// Execution plans. Compile validates a run configuration once — graph
// size, drop rate, scheduler/graph binding — and selects the single
// fastest kernel (engine.go) for the scheduler × graph shape; ExecPlan
// then drives that kernel in bounded chunks, placing chunk boundaries
// exactly on observer ticks. One engine architecture serves every
// scenario: a weighted-scheduler run with failure injection and an
// attached observer executes the same monomorphized block-sampling loop
// as an uninstrumented one, just with shorter chunks.
//
// The chunk length is min(rngBlockSize, steps to the next observer
// boundary, steps to the cap). Kernels keep their block-prefetch state
// alive across chunks, so boundary placement never changes the random
// stream — only where control returns to the plan for the Observe
// callback and the stabilization exit.

package sim

import (
	"fmt"
	"math"
	"sync"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// planMode identifies the kernel a plan compiled to.
type planMode uint8

const (
	// modeGeneric is the Source-driven reference loop: explicit samplers,
	// schedulers with per-run mutable state (churn), custom graph or
	// scheduler types, and anything forced by Options.Reference.
	modeGeneric planMode = iota
	modeDenseUniform
	modeCliqueUniform
	modeWeighted
	modeNodeClock
)

var planModeNames = [...]string{
	modeGeneric:       "generic",
	modeDenseUniform:  "dense-uniform",
	modeCliqueUniform: "clique-uniform",
	modeWeighted:      "weighted",
	modeNodeClock:     "node-clock",
}

// ExecPlan is a compiled run configuration: the validated (graph,
// scheduler, drop, observer, cap) tuple bound to the specialized kernel
// that will execute it. A plan is immutable and holds no per-run state —
// kernels are instantiated inside Run — so one plan may drive any number
// of runs, including concurrently, provided each run has its own
// Protocol and generator (as always) and the plan's Observer, which is
// shared across its runs, is nil or itself safe for concurrent use.
type ExecPlan struct {
	g         graph.Graph
	maxSteps  int64
	drop      float64
	observer  Observer
	every     int64
	mode      planMode
	noTable   bool        // Options.NoTable: force Step dispatch for Tabular protocols
	sched     Scheduler   // non-nil when a non-uniform scheduler drives the run
	sampler   EdgeSampler // non-nil when Options.Sampler overrode the pair stream
	weighted  *Weighted
	nodeClock *NodeClock
	meter     *telemetry.Counters // Options.Meter: nil disables run accounting
}

// Engine names the scheduler kernel the plan compiled to —
// "dense-uniform", "clique-uniform", "weighted", "node-clock" or
// "generic" — for benchmark reports and logs. The protocol axis is
// orthogonal: ProtocolEngine reports whether a given protocol fuses
// into the kernel's table variant.
func (pl *ExecPlan) Engine() string { return planModeNames[pl.mode] }

// ProtocolEngine reports the protocol dispatch a run of p on this plan
// selects: "table" when p is Tabular, provides a table, and the plan
// compiled to a specialized kernel (fused transition-table variant);
// "step" otherwise (Protocol.Step interface dispatch). Benchmark
// reports record it per cell.
func (pl *ExecPlan) ProtocolEngine(p Protocol) string {
	if pl.fusable(p) != nil {
		return "table"
	}
	return "step"
}

// fusable returns p's machine when this plan would fuse it into a
// table kernel, nil otherwise. Fusion needs a specialized scheduler
// kernel (the generic Source loop keeps interface dispatch), no NoTable
// override, and a Tabular protocol whose machine has a table.
func (pl *ExecPlan) fusable(p Protocol) *core.Machine {
	if pl.noTable || pl.mode == modeGeneric {
		return nil
	}
	tp, ok := p.(Tabular)
	if !ok || tp.TableMachine().Table() == nil {
		return nil
	}
	return tp.TableMachine()
}

// MaxSteps returns the resolved step cap (Options.MaxSteps, or
// DefaultMaxSteps of the graph when that was zero).
func (pl *ExecPlan) MaxSteps() int64 { return pl.maxSteps }

// Compile validates opts against g and selects the execution kernel.
// All input checking lives here: Run-time panics on bad configurations
// are gone, callers that want errors use Compile or RunE, and the
// legacy Run wrapper panics with the error Compile returned.
func Compile(g graph.Graph, opts Options) (*ExecPlan, error) {
	if g == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	if g.N() < 2 {
		return nil, fmt.Errorf("sim: graph %q too small (n=%d)", g.Name(), g.N())
	}
	if math.IsNaN(opts.DropRate) || opts.DropRate < 0 || opts.DropRate >= 1 {
		return nil, fmt.Errorf("sim: drop rate %v outside [0, 1)", opts.DropRate)
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps(g.N())
	}
	every := opts.ObserveEvery
	if every <= 0 {
		every = 1
	}
	pl := &ExecPlan{
		g:        g,
		maxSteps: maxSteps,
		drop:     opts.DropRate,
		observer: opts.Observer,
		every:    every,
		noTable:  opts.NoTable,
		meter:    opts.Meter,
	}
	// The uniform policy (nil or Uniform{}, graph-bound or not) is the
	// graph's own SampleEdge distribution.
	sched := opts.Scheduler
	switch sched.(type) {
	case Uniform, *Uniform:
		sched = nil
	}
	pl.sched = sched
	// Scheduler/graph binding is validated regardless of which kernel
	// ends up selected: a Reference-forced or Sampler-overridden run must
	// reject the same configurations the specialized kernels would.
	switch s := sched.(type) {
	case *Weighted:
		if s.alias.N() != g.M() {
			return nil, fmt.Errorf("sim: weighted scheduler %q is built for %d edges, graph %q has %d",
				s.Name(), s.alias.N(), g.Name(), g.M())
		}
	case *NodeClock:
		if s.alias.N() != g.N() {
			return nil, fmt.Errorf("sim: node-clock scheduler is built for %d nodes, graph %q has %d",
				s.alias.N(), g.Name(), g.N())
		}
	}
	switch {
	case opts.Sampler != nil:
		// An explicit pair stream always takes the reference kernel; it
		// overrides the scheduler, as it always has.
		pl.sampler = opts.Sampler
		pl.sched = nil
	case opts.Reference:
		// Forced reference loop: same stream, no specialization.
	default:
		switch s := sched.(type) {
		case *Weighted:
			pl.mode = modeWeighted
			pl.weighted = s
		case *NodeClock:
			pl.mode = modeNodeClock
			pl.nodeClock = s
		case nil:
			switch g.(type) {
			case *graph.Dense:
				pl.mode = modeDenseUniform
			case graph.Clique:
				pl.mode = modeCliqueUniform
			}
		}
	}
	return pl, nil
}

// runLabels holds each mode's flight-recorder dispatch labels,
// "<scheduler-engine>/<protocol-engine>", built once so that a run
// allocates none: [mode][0] for Step dispatch, [mode][1] for a fused
// table.
var runLabels = func() (ls [len(planModeNames)][2]string) {
	for m, name := range planModeNames {
		ls[m] = [2]string{name + "/step", name + "/table"}
	}
	return ls
}()

// runScratch holds one kernel of each solo type, each with its own
// 4 KiB prefetch block. Runs recycle scratches through scratchPool, so
// a run allocates no kernel: newKernel re-inits the one it picks, which
// sets every field except the block buffer (refill overwrites that
// before any read). Between runs a pooled scratch may still reference
// its last run's graph and protocol; nothing reads them before the next
// init overwrites them.
type runScratch struct {
	dense          denseKernel
	clique         cliqueKernel
	weighted       weightedKernel
	nodeClock      nodeClockKernel
	denseTable     denseTableKernel
	cliqueTable    cliqueTableKernel
	weightedTable  weightedTableKernel
	nodeClockTable nodeClockTableKernel
	source         sourceKernel
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// newKernel instantiates the per-run chunk runner in s; r is available
// for scheduler Begin draws, mirroring the pre-plan Source construction
// point (after Protocol.Reset). p has been Reset on the plan's graph,
// so a Tabular protocol's machine holds its n states and counters;
// fused kernels are selected here (per run, not per plan) because the
// protocol axis is a Run argument, not a Compile one. The second return
// is the dispatch label the flight recorder tallies runs under, e.g.
// "dense-uniform/table".
func (pl *ExecPlan) newKernel(p Protocol, r *xrand.Rand, s *runScratch) (kernel, string) {
	if m := pl.fusable(p); m != nil {
		label := runLabels[pl.mode][1]
		switch pl.mode {
		case modeDenseUniform:
			s.denseTable.init(pl.g.(*graph.Dense), pl.drop, m)
			return &s.denseTable, label
		case modeCliqueUniform:
			s.cliqueTable.init(pl.g.(graph.Clique), pl.drop, m)
			return &s.cliqueTable, label
		case modeWeighted:
			s.weightedTable.init(pl.weighted, pl.drop, m)
			return &s.weightedTable, label
		case modeNodeClock:
			s.nodeClockTable.init(pl.nodeClock, pl.drop, m)
			return &s.nodeClockTable, label
		}
	}
	label := runLabels[pl.mode][0]
	switch pl.mode {
	case modeDenseUniform:
		s.dense.init(pl.g.(*graph.Dense), pl.drop)
		return &s.dense, label
	case modeCliqueUniform:
		s.clique.init(pl.g.(graph.Clique), pl.drop)
		return &s.clique, label
	case modeWeighted:
		s.weighted.init(pl.weighted, pl.drop)
		return &s.weighted, label
	case modeNodeClock:
		s.nodeClock.init(pl.nodeClock, pl.drop)
		return &s.nodeClock, label
	}
	var src Source
	switch {
	case pl.sampler != nil:
		src = samplerSource{pl.sampler}
	case pl.sched != nil:
		src = pl.sched.Begin(r)
	default:
		src = samplerSource{pl.g}
	}
	s.source = sourceKernel{src: src, drop: pl.drop}
	return &s.source, label
}

// Run resets p on the plan's graph and executes the compiled kernel in
// chunks until the protocol reports a stable configuration or the step
// cap is hit. Observer callbacks fire after the step closing each
// observer interval, including a stabilizing step that lands on a
// boundary — exactly the cadence of the step-at-a-time reference loop.
//
// Metering (Options.Meter) is pure bookkeeping on the control path:
// chunk and observer tallies live in locals, kernel counters in kernel
// fields, and everything is flushed to the meter in one batch per run,
// after the result is decided. A run that panics flushes nothing, so an
// aggregated meter counts exactly the steps of the runs that completed.
func (pl *ExecPlan) Run(p Protocol, r *xrand.Rand) Result {
	p.Reset(pl.g, r)
	if b, ok := pl.observer.(ProtocolBinder); ok {
		b.Bind(p)
	}
	scratch := scratchPool.Get().(*runScratch)
	kern, label := pl.newKernel(p, r, scratch)
	var t, chunks, observes int64
	stabilized := false
	for t < pl.maxSteps && !stabilized {
		k := pl.maxSteps - t
		if k > rngBlockSize {
			k = rngBlockSize
		}
		if pl.observer != nil {
			if toBoundary := pl.every - t%pl.every; toBoundary < k {
				k = toBoundary
			}
		}
		var done int64
		done, stabilized = kern.run(p, r, t, k)
		t += done
		chunks++
		if pl.observer != nil && t%pl.every == 0 {
			pl.observer.Observe(t)
			observes++
		}
	}
	kern.finish(r)
	pl.flush(kern, label, t, chunks, observes)
	scratchPool.Put(scratch)
	if stabilized {
		return Result{Steps: t, Stabilized: true, Leader: FindLeader(pl.g, p)}
	}
	return Result{Steps: pl.maxSteps, Stabilized: false, Leader: -1}
}

// flush hands a completed run's accounting to the meter and closes any
// trajectory-style observer. Called after the kernel has rewound the
// generator and stored its counters back, so finishers read exact
// terminal state; the Result the caller returns is already fixed, and
// nothing here touches r.
func (pl *ExecPlan) flush(kern kernel, label string, steps, chunks, observes int64) {
	if f, ok := pl.observer.(RunFinisher); ok {
		f.Finish(steps)
	}
	if pl.meter != nil {
		refills, drops := kern.stats()
		pl.meter.AddRun(steps, chunks, refills, drops, observes, label)
	}
}
