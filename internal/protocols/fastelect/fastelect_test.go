package fastelect

import (
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// testParams are small parameters suitable for tiny test graphs.
var testParams = Params{H: 3, L: 6, AlphaL: 24}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{H: 0, L: 5, AlphaL: 10},
		{H: 2, L: 0, AlphaL: 10},
		{H: 2, L: 5, AlphaL: 5},
		{H: 2, L: 5, AlphaL: 4},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
	if err := testParams.Validate(); err != nil {
		t.Fatalf("test params invalid: %v", err)
	}
}

func TestParamHelpers(t *testing.T) {
	g := graph.Cycle(64)
	b := 64.0 * 64 * 3 // rough Θ(n·m) broadcast time on a cycle
	for _, params := range []Params{PaperParams(g, b, 1), PaperParams(g, b, 2), TunedParams(g, b)} {
		if err := params.Validate(); err != nil {
			t.Errorf("helper produced invalid params: %+v: %v", params, err)
		}
	}
	// Paper parameters: h = 8 + ceil(log2(B·Δ/m)) = 8 + ceil(log2(384)) = 17.
	if got := PaperParams(g, b, 1).H; got != 17 {
		t.Errorf("paper h = %d, want 17", got)
	}
	// Tuned keeps the same form with a smaller constant.
	if got := TunedParams(g, b).H; got != 11 {
		t.Errorf("tuned h = %d, want 11", got)
	}
}

func TestStabilizesOnFamilies(t *testing.T) {
	graphs := []graph.Graph{
		graph.NewClique(16),
		graph.Cycle(12),
		graph.Torus2D(3, 4),
		graph.Star(10),
		graph.Path(8),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			p := New(testParams)
			res := sim.Run(g, p, xrand.New(37), sim.Options{})
			if !res.Stabilized {
				t.Fatalf("no stabilization in %d steps", res.Steps)
			}
			if sim.CountLeaders(g, p) != 1 || p.Leaders() != 1 {
				t.Fatalf("leaders: scan %d counter %d", sim.CountLeaders(g, p), p.Leaders())
			}
		})
	}
}

// TestAlwaysAtLeastOneLeader verifies the liveness invariant Section 5.2
// argues: in every configuration some node outputs leader.
func TestAlwaysAtLeastOneLeader(t *testing.T) {
	g := graph.Torus2D(4, 4)
	p := New(Params{H: 2, L: 4, AlphaL: 8}) // small cap to exercise backup
	r := xrand.New(41)
	p.Reset(g, r)
	for step := 0; step < 400000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if p.Leaders() < 1 {
			t.Fatalf("step %d: zero leaders", step)
		}
		if step%499 == 0 {
			if scan := sim.CountLeaders(g, p); scan != p.Leaders() {
				t.Fatalf("step %d: leaders counter %d != scan %d", step, p.Leaders(), scan)
			}
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize")
	}
}

// TestBackupPathStabilizes forces the level cap low so several nodes enter
// the backup, and checks the run still elects exactly one leader.
func TestBackupPathStabilizes(t *testing.T) {
	g := graph.NewClique(12)
	p := New(Params{H: 1, L: 2, AlphaL: 3})
	res := sim.Run(g, p, xrand.New(43), sim.Options{})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	if p.InBackup() == 0 {
		t.Fatal("expected backup entry with a tiny level cap")
	}
	if sim.CountLeaders(g, p) != 1 {
		t.Fatalf("%d leaders", sim.CountLeaders(g, p))
	}
	// Once any node is in backup and the run stabilized, all nodes must
	// have been recruited (the cap level broadcasts).
	if p.InBackup() != g.N() {
		t.Fatalf("only %d of %d nodes entered backup at stabilization", p.InBackup(), g.N())
	}
}

// TestBackupInvariant — within the backup, candidates = black + white and
// black >= 1 once any candidate entered.
func TestBackupInvariant(t *testing.T) {
	g := graph.NewClique(10)
	p := New(Params{H: 1, L: 2, AlphaL: 3})
	r := xrand.New(47)
	p.Reset(g, r)
	for step := 0; step < 300000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		c := p.Counts()
		if c.Candidates != c.Black+c.White {
			t.Fatalf("step %d: backup invariant broken: %+v", step, c)
		}
		if p.InBackup() > 0 && c.Black < 1 {
			t.Fatalf("step %d: backup populated but no black token: %+v", step, c)
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize")
	}
}

func TestStabilityIsPermanent(t *testing.T) {
	g := graph.Cycle(10)
	p := New(testParams)
	r := xrand.New(53)
	res := sim.Run(g, p, r, sim.Options{})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	leader := res.Leader
	for i := 0; i < 50000; i++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if !p.Stable() {
			t.Fatalf("stability lost at extra step %d", i)
		}
		if p.Output(leader) != core.Leader {
			t.Fatalf("leader output changed at extra step %d", i)
		}
	}
}

// TestLevelsMonotoneAndCapped — levels never decrease and never exceed the cap.
func TestLevelsMonotoneAndCapped(t *testing.T) {
	g := graph.NewClique(8)
	p := New(Params{H: 2, L: 3, AlphaL: 6})
	r := xrand.New(59)
	p.Reset(g, r)
	prev := make([]int, g.N())
	for step := 0; step < 100000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		for _, w := range []int{u, v} {
			l := p.Level(w)
			if l < prev[w] {
				t.Fatalf("step %d: level of %d decreased %d -> %d", step, w, prev[w], l)
			}
			if l > 6 {
				t.Fatalf("step %d: level of %d exceeds cap: %d", step, w, l)
			}
			prev[w] = l
		}
	}
}

// TestFollowersNeverPromoted — once a node loses fast-phase leader status
// it never outputs leader again unless it is a backup candidate (which
// can only happen if it entered backup as a leader).
func TestFollowersNeverPromoted(t *testing.T) {
	g := graph.Torus2D(3, 3)
	p := New(testParams)
	r := xrand.New(61)
	p.Reset(g, r)
	demoted := make([]bool, g.N())
	for step := 0; step < 400000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		for w := 0; w < g.N(); w++ {
			isLeader := p.Output(w) == core.Leader
			if demoted[w] && isLeader {
				t.Fatalf("step %d: demoted node %d outputs leader again", step, w)
			}
			if !isLeader {
				demoted[w] = true
			}
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize")
	}
}

func TestStateCount(t *testing.T) {
	p := New(Params{H: 3, L: 5, AlphaL: 20})
	// (h+1)·(2·αL + 6) = 4·46 = 184.
	if got := p.StateCount(100); got != 184 {
		t.Fatalf("StateCount = %v, want 184", got)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Params{H: 0, L: 1, AlphaL: 2})
}

// TestStreakClockBasics: an initiator completes a streak on its h-th
// consecutive initiation, which ticks a leader up one level and resets
// its counter.
func TestStreakClockBasics(t *testing.T) {
	g := graph.NewClique(4)
	p := New(Params{H: 3, L: 5, AlphaL: 10})
	p.Reset(g, xrand.New(1))
	p.Step(0, 1)
	p.Step(0, 2)
	if int(p.streak[0]) != 2 || p.Level(0) != 0 {
		t.Fatalf("after two initiations: streak %d level %d, want 2 and 0", int(p.streak[0]), p.Level(0))
	}
	p.Step(0, 1)
	if int(p.streak[0]) != 0 || p.Level(0) != 1 {
		t.Fatalf("after three initiations: streak %d level %d, want 0 and 1", int(p.streak[0]), p.Level(0))
	}
}

// TestStreakResponderReset: responding resets a node's streak.
func TestStreakResponderReset(t *testing.T) {
	g := graph.NewClique(3)
	p := New(Params{H: 2, L: 5, AlphaL: 10})
	p.Reset(g, xrand.New(1))
	p.Step(0, 1) // node 0 at streak 1
	p.Step(2, 0) // node 0 responds: reset
	if int(p.streak[0]) != 0 {
		t.Fatal("responder streak not reset")
	}
	p.Step(0, 1)
	if p.Level(0) != 0 {
		t.Fatal("a reset streak ticked early")
	}
	p.Step(0, 1)
	if p.Level(0) != 1 {
		t.Fatal("fresh streak of 2 should tick")
	}
}

// TestStreakClockReset: Reset zeroes every streak counter.
func TestStreakClockReset(t *testing.T) {
	g := graph.NewClique(2)
	p := New(Params{H: 5, L: 5, AlphaL: 10})
	p.Reset(g, xrand.New(1))
	p.Step(0, 1)
	p.Step(0, 1)
	p.Reset(g, xrand.New(1))
	if int(p.streak[0]) != 0 || int(p.streak[1]) != 0 {
		t.Fatal("Reset did not zero streak counters")
	}
}

// TestStreakLengthValidation: h < 1 is rejected by New, h > 60 at Reset.
func TestStreakLengthValidation(t *testing.T) {
	for _, h := range []int{0, -1, 61} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("h=%d: expected panic", h)
				}
			}()
			New(Params{H: h, L: 1, AlphaL: 2}).Reset(graph.NewClique(2), xrand.New(1))
		}()
	}
}

// machineParams span small caps (the backup path), the ladder's tuned
// parameters and the largest table, k = 256.
var machineParams = []Params{
	{H: 1, L: 1, AlphaL: 2},
	{H: 2, L: 2, AlphaL: 5},
	{H: 3, L: 6, AlphaL: 24},
	{H: 4, L: 12, AlphaL: 72},
	{H: 2, L: 20, AlphaL: 125},
}

// TestLevelTableMatchesRule checks the compiled table against rule on all
// k² state pairs, and that a tick never changes a node's output or gap
// weight (Step applies it without touching the counters).
func TestLevelTableMatchesRule(t *testing.T) {
	for _, params := range machineParams {
		tab := LevelTable(params)
		k := params.States()
		if tab == nil || tab.K() != k {
			t.Fatalf("%+v: table %v, want %d states", params, tab, k)
		}
		for a := 0; a < k; a++ {
			s := uint32(a)
			if tab.Role(uint8(a)) != params.role(s) || tab.GapWeight(uint8(a)) != params.gapWeight(s) {
				t.Fatalf("%+v: state %d: role or gap weight differs", params, a)
			}
			if ts := params.Tick(s); params.role(ts) != params.role(s) || params.gapWeight(ts) != params.gapWeight(s) {
				t.Fatalf("%+v: tick %d -> %d changes role or gap weight", params, a, ts)
			}
			for b := 0; b < k; b++ {
				na, nb := params.rule(s, uint32(b))
				ta, tb := tab.Next(uint8(a), uint8(b))
				if uint32(ta) != na || uint32(tb) != nb {
					t.Fatalf("%+v: pair (%d,%d): table (%d,%d), rule (%d,%d)", params, a, b, ta, tb, na, nb)
				}
			}
		}
	}
	if LevelTable(Params{H: 2, L: 20, AlphaL: 126}) != nil {
		t.Fatal("k = 258 compiled to a table")
	}
}

// TestNotTabular: fast keeps Step dispatch; its table is internal.
func TestNotTabular(t *testing.T) {
	if _, ok := sim.Protocol(New(testParams)).(sim.Tabular); ok {
		t.Fatal("fastelect.Protocol implements sim.Tabular")
	}
}

// checkCounters compares Leaders and Stable with a scan of the states.
func checkCounters(t *testing.T, p *Protocol, n int, step int) {
	t.Helper()
	leaders := 0
	for v := 0; v < n; v++ {
		if p.Output(v) == core.Leader {
			leaders++
		}
	}
	c := p.Counts()
	if p.Leaders() != leaders || p.Stable() != (leaders == 1 && c.White == 0) {
		t.Fatalf("step %d: Leaders %d Stable %v, scan: %d leaders, %d white",
			step, p.Leaders(), p.Stable(), leaders, c.White)
	}
}

// TestRuleStepMatchesScan runs a machine too large for a table (k > 256)
// through Step into the backup and checks the counters against scans.
func TestRuleStepMatchesScan(t *testing.T) {
	params := Params{H: 1, L: 128, AlphaL: 130}
	g := graph.NewClique(8)
	p := New(params)
	if p.cells != nil {
		t.Fatal("k > 256 compiled to a table")
	}
	r := xrand.New(71)
	p.Reset(g, r)
	step := 0
	for ; step < 400000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		checkCounters(t, p, g.N(), step)
	}
	if !p.Stable() || p.InBackup() == 0 {
		t.Fatalf("after %d steps: stable %v, %d in backup", step, p.Stable(), p.InBackup())
	}
}

// FuzzFastMachine runs random parameters, k > 256 included, on a random
// pair script. Every step must match the clock followed by rule, the
// compiled table (when there is one) must agree with rule, and Leaders
// and Stable must match a scan.
func FuzzFastMachine(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(4), []byte{0, 1, 2, 3, 1, 0, 3, 2})
	f.Add(uint8(2), uint8(2), uint8(3), uint8(6), []byte{5, 1, 0, 4, 2, 2, 3, 1, 4, 0})
	f.Add(uint8(1), uint8(3), uint8(127), uint8(5), []byte{0, 1, 1, 0, 2, 3, 3, 4, 4, 0})
	f.Fuzz(func(t *testing.T, h, l, extra, n uint8, script []byte) {
		params := Params{H: 1 + int(h%4), L: 1 + int(l%8), AlphaL: 0}
		params.AlphaL = params.L + 1 + int(extra%130)
		g := graph.NewClique(2 + int(n%10))
		p := New(params)
		tab := LevelTable(params)
		p.Reset(g, xrand.New(1))
		for i := 0; i+1 < len(script) && i < 4000; i += 2 {
			u, v := int(script[i])%g.N(), int(script[i+1])%g.N()
			if u == v {
				v = (v + 1) % g.N()
			}
			a, b := p.state[u], p.state[v]
			if int(p.streak[u])+1 == params.H {
				a = params.Tick(a)
			}
			na, nb := params.rule(a, b)
			if tab != nil {
				if ta, tb := tab.Next(uint8(a), uint8(b)); uint32(ta) != na || uint32(tb) != nb {
					t.Fatalf("%+v: pair (%d,%d): table (%d,%d), rule (%d,%d)", params, a, b, ta, tb, na, nb)
				}
			}
			p.Step(u, v)
			if p.state[u] != na || p.state[v] != nb {
				t.Fatalf("%+v: Step(%d,%d) gave (%d,%d), want (%d,%d)", params, u, v, p.state[u], p.state[v], na, nb)
			}
			checkCounters(t, p, g.N(), i/2)
		}
	})
}
