package sim_test

import (
	"math"
	"strings"
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/protocols/idelect"
	"popgraph/internal/protocols/majority"
	. "popgraph/internal/sim"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// TestCompileValidation — every input the old Run panicked on — and the
// scheduler/graph mismatches it silently accepted — must come back as a
// compile error naming the problem.
func TestCompileValidation(t *testing.T) {
	g := graph.Torus2D(3, 4)
	weightedFor := func(h graph.Graph) Scheduler {
		rates := make([]float64, h.M())
		for i := range rates {
			rates[i] = 1
		}
		s, err := NewWeighted(h, "w", rates)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	nodeClockFor := func(h graph.Graph) Scheduler {
		s, err := NewNodeClock(h)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	single, err := graph.NewDense(1, nil, "single")
	if err != nil {
		t.Fatalf("1-node graph rejected by constructor: %v", err)
	}
	cases := []struct {
		name string
		g    graph.Graph
		opts Options
		want string // substring of the error
	}{
		{"nil-graph", nil, Options{}, "nil graph"},
		{"tiny-graph", single, Options{}, "too small"},
		{"drop-one", g, Options{DropRate: 1}, "drop rate"},
		{"drop-negative", g, Options{DropRate: -0.1}, "drop rate"},
		{"drop-nan", g, Options{DropRate: math.NaN()}, "drop rate"},
		{"weighted-wrong-graph", g, Options{Scheduler: weightedFor(graph.Path(3))}, "built for"},
		{"node-clock-wrong-graph", g, Options{Scheduler: nodeClockFor(graph.Path(3))}, "built for"},
		// Binding checks must hold on the reference and sampler paths
		// too: a forced-generic run would otherwise feed out-of-range
		// node ids from the mismatched scheduler straight to the protocol.
		{"weighted-wrong-graph-reference", g, Options{Scheduler: weightedFor(graph.Path(3)), Reference: true}, "built for"},
		{"node-clock-wrong-graph-reference", g, Options{Scheduler: nodeClockFor(graph.Path(3)), Reference: true}, "built for"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Compile(c.g, c.opts); err == nil {
				t.Fatalf("Compile accepted %+v", c.opts)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if _, err := RunE(c.g, beauquier.New(), xrand.New(1), c.opts); err == nil {
				t.Fatal("RunE accepted what Compile rejected")
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Run did not panic on what Compile rejected")
					}
				}()
				Run(c.g, beauquier.New(), xrand.New(1), c.opts)
			}()
		})
	}
}

// TestCompileEngineSelection — the plan must pick the specialized kernel
// whenever one exists for the scheduler × graph shape — regardless of
// observers and drop rates, which no longer force the generic loop —
// and fall back to the generic reference kernel for stateful
// schedulers, explicit samplers and forced-reference runs.
func TestCompileEngineSelection(t *testing.T) {
	torus := graph.Torus2D(3, 4)
	clique := graph.NewClique(8)
	weighted, err := NewWeighted(torus, "w", func() []float64 {
		r := make([]float64, torus.M())
		for i := range r {
			r[i] = float64(i + 1)
		}
		return r
	}())
	if err != nil {
		t.Fatal(err)
	}
	nodeClock, err := NewNodeClock(torus)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := NewChurn(torus, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	cases := []struct {
		name string
		g    graph.Graph
		opts Options
		want string
	}{
		{"dense-uniform", torus, Options{}, "dense-uniform"},
		{"clique-uniform", clique, Options{}, "clique-uniform"},
		{"explicit-uniform", torus, Options{Scheduler: Uniform{}}, "dense-uniform"},
		{"dense-with-drop", torus, Options{DropRate: 0.5}, "dense-uniform"},
		{"dense-with-observer", torus, Options{Observer: obs, ObserveEvery: 3}, "dense-uniform"},
		{"weighted", torus, Options{Scheduler: weighted}, "weighted"},
		{"weighted-drop-observer", torus, Options{Scheduler: weighted, DropRate: 0.2, Observer: obs}, "weighted"},
		{"node-clock", torus, Options{Scheduler: nodeClock}, "node-clock"},
		{"churn-is-generic", torus, Options{Scheduler: churn}, "generic"},
		{"sampler-forces-generic", torus, Options{Sampler: torus}, "generic"},
		{"reference-forces-generic", torus, Options{Reference: true}, "generic"},
		{"reference-weighted", torus, Options{Scheduler: weighted, Reference: true}, "generic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, err := Compile(c.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if pl.Engine() != c.want {
				t.Fatalf("engine %q, want %q", pl.Engine(), c.want)
			}
		})
	}
}

// TestProtocolEngineSelection — the protocol axis of kernel selection.
// A Tabular protocol fuses into the table variant of every specialized
// scheduler kernel; Options.NoTable, the generic kernel (churn,
// samplers, Reference) and non-Tabular protocols keep Step dispatch.
func TestProtocolEngineSelection(t *testing.T) {
	torus := graph.Torus2D(3, 4)
	churn, err := NewChurn(torus, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodeClock, err := NewNodeClock(torus)
	if err != nil {
		t.Fatal(err)
	}
	six := beauquier.New()
	cases := []struct {
		name string
		g    graph.Graph
		opts Options
		p    Protocol
		want string
	}{
		{"six-state-dense", torus, Options{}, six, "table"},
		{"six-state-clique", graph.NewClique(8), Options{}, six, "table"},
		{"six-state-node-clock", torus, Options{Scheduler: nodeClock}, six, "table"},
		{"no-table-forces-step", torus, Options{NoTable: true}, six, "step"},
		{"reference-forces-step", torus, Options{Reference: true}, six, "step"},
		{"sampler-forces-step", torus, Options{Sampler: torus}, six, "step"},
		{"churn-forces-step", torus, Options{Scheduler: churn}, six, "step"},
		{"non-tabular-protocol", torus, Options{}, idelect.New(), "step"},
		{"tie-majority-has-no-table", torus, Options{},
			majority.New(append(make([]bool, 6), true, true, true, true, true, true)), "step"},
		{"majority-dense", torus, Options{},
			majority.New(append(make([]bool, 5), true, true, true, true, true, true, true)), "table"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, err := Compile(c.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := pl.ProtocolEngine(c.p); got != c.want {
				t.Fatalf("protocol engine %q, want %q", got, c.want)
			}
		})
	}
}

// TestPlanMaxStepsResolution — the compiled plan resolves the default
// cap once, at compile time.
func TestPlanMaxStepsResolution(t *testing.T) {
	g := graph.NewClique(16)
	pl, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.MaxSteps() != DefaultMaxSteps(16) {
		t.Fatalf("default cap %d, want %d", pl.MaxSteps(), DefaultMaxSteps(16))
	}
	pl, err = Compile(g, Options{MaxSteps: 123})
	if err != nil {
		t.Fatal(err)
	}
	if pl.MaxSteps() != 123 {
		t.Fatalf("explicit cap %d, want 123", pl.MaxSteps())
	}
}

// TestPlanIsReusable — a plan holds no per-run state — repeated Run
// calls from the same seed replay identically, including for schedulers
// with per-run mutable sources (churn) and for runs sharing one
// generator sequentially.
func TestPlanIsReusable(t *testing.T) {
	g := graph.Torus2D(3, 4)
	churn, err := NewChurn(g, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{MaxSteps: 2000},
		{MaxSteps: 2000, Scheduler: churn, DropRate: 0.1},
	} {
		pl, err := Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		a := pl.Run(beauquier.New(), xrand.New(9))
		b := pl.Run(beauquier.New(), xrand.New(9))
		if a != b {
			t.Fatalf("engine %s: same-seed runs diverged: %+v vs %+v", pl.Engine(), a, b)
		}
		// One generator across consecutive runs: the rewind at the end of
		// each run must leave the stream exactly where the reference loop
		// would, so later runs agree too.
		rPlan, rRef := xrand.New(31), xrand.New(31)
		for round := 0; round < 3; round++ {
			refOpts := opts
			refOpts.Reference = true
			pr := pl.Run(beauquier.New(), rPlan)
			rr := Run(g, beauquier.New(), rRef, refOpts)
			if pr != rr {
				t.Fatalf("engine %s round %d: %+v != %+v", pl.Engine(), round, pr, rr)
			}
		}
	}
}

// TestReusedPlanRunAllocatesOnlyReset — a solo run on a reused plan
// recycles its kernel and 4 KiB prefetch block and shares the
// protocol's table, so it allocates no more than the protocol's own
// Reset does.
func TestReusedPlanRunAllocatesOnlyReset(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, g := range []graph.Graph{graph.Torus2D(4, 4), graph.NewClique(16)} {
		pl, err := Compile(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := beauquier.New()
		r := xrand.New(1)
		pl.Run(p, r) // warm the kernel pool and the shared table
		if got := pl.ProtocolEngine(p); got != "table" {
			t.Fatalf("%s: protocol engine %q, want table", g.Name(), got)
		}
		reset := testing.AllocsPerRun(100, func() { p.Reset(g, r) })
		run := testing.AllocsPerRun(100, func() { pl.Run(p, r) })
		if run > reset {
			t.Errorf("%s: Run allocates %v times, the protocol's Reset %v", g.Name(), run, reset)
		}
	}
}

// TestRecycledKernelsCarryNothingOver — runs recycle their kernels, so
// no run may depend on the runs before it: the same runs in opposite
// orders give identical results, run accounting and post-run generator
// states.
func TestRecycledKernelsCarryNothingOver(t *testing.T) {
	torus, clique := graph.Torus2D(4, 4), graph.NewClique(16)
	nodeClock, err := NewNodeClock(torus)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		g    graph.Graph
		opts Options
	}{
		{torus, Options{}},
		{torus, Options{DropRate: 0.3}},
		{torus, Options{NoTable: true, DropRate: 0.2}},
		{torus, Options{Scheduler: nodeClock, DropRate: 0.25}},
		{clique, Options{DropRate: 0.4}},
		{clique, Options{NoTable: true}},
	}
	type run struct {
		res   Result
		snap  telemetry.Snapshot
		state xrand.State
	}
	runAll := func(order []int) []run {
		out := make([]run, len(cases))
		for _, i := range order {
			opts := cases[i].opts
			opts.Meter = new(telemetry.Counters)
			pl, err := Compile(cases[i].g, opts)
			if err != nil {
				t.Fatal(err)
			}
			r := xrand.New(uint64(40 + i))
			res := pl.Run(beauquier.New(), r)
			out[i] = run{res, opts.Meter.Snapshot(), r.Save()}
		}
		return out
	}
	fwd := runAll([]int{0, 1, 2, 3, 4, 5})
	rev := runAll([]int{5, 4, 3, 2, 1, 0})
	for i := range cases {
		a, b := fwd[i], rev[i]
		if a.res != b.res || a.state != b.state || a.snap.StepsExecuted != b.snap.StepsExecuted ||
			a.snap.ChunksRun != b.snap.ChunksRun || a.snap.RNGRefills != b.snap.RNGRefills ||
			a.snap.DropsApplied != b.snap.DropsApplied {
			t.Errorf("case %d depends on run order: %+v vs %+v", i, a, b)
		}
	}
}
