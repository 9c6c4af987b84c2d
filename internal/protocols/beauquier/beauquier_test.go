package beauquier

import (
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// scanCounts recomputes the token counters from scratch.
func scanCounts(p *Protocol, n int) core.TokenCounts {
	var c core.TokenCounts
	for v := 0; v < n; v++ {
		c.Add(p.State(v), 1)
	}
	return c
}

// TestInvariantsDuringRun steps the protocol manually and verifies after
// every interaction the paper's invariants on a full token scan —
// #candidates = #black + #white and #black >= 1 — and that the
// machine's O(1) Leaders and Stable agree with that scan.
func TestInvariantsDuringRun(t *testing.T) {
	g := graph.Torus2D(4, 4)
	p := New()
	r := xrand.New(5)
	p.Reset(g, r)
	for step := 0; step < 200000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		c := scanCounts(p, g.N())
		if c.Candidates != c.Black+c.White {
			t.Fatalf("step %d: invariant broken: %+v", step, c)
		}
		if c.Black < 1 {
			t.Fatalf("step %d: black tokens vanished: %+v", step, c)
		}
		if p.Leaders() != c.Candidates || p.Stable() != c.Stable() {
			t.Fatalf("step %d: Leaders %d Stable %v, scan %+v", step, p.Leaders(), p.Stable(), c)
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize within budget")
	}
}

// TestCountersAccurateAfterFusedRun — a fused table kernel keeps the
// machine's counters in its own locals and stores them back when it
// returns, so after the run Leaders() and Stable() must agree with a
// full token scan, for capped and stabilized runs alike.
func TestCountersAccurateAfterFusedRun(t *testing.T) {
	g := graph.Torus2D(4, 4)
	for _, maxSteps := range []int64{100, 0} {
		p := New()
		res := sim.Run(g, p, xrand.New(8), sim.Options{MaxSteps: maxSteps})
		if pl, err := sim.Compile(g, sim.Options{}); err != nil || pl.ProtocolEngine(p) != "table" {
			t.Fatalf("run did not take the fused path (%v, %v)", pl.ProtocolEngine(p), err)
		}
		c := scanCounts(p, g.N())
		if p.Leaders() != c.Candidates || p.Leaders() != sim.CountLeaders(g, p) {
			t.Fatalf("cap %d: Leaders() %d, token scan %+v, output scan %d",
				maxSteps, p.Leaders(), c, sim.CountLeaders(g, p))
		}
		if p.Stable() != c.Stable() || p.Stable() != res.Stabilized {
			t.Fatalf("cap %d: Stable() %v, token scan %v, run reported %v",
				maxSteps, p.Stable(), c.Stable(), res.Stabilized)
		}
	}
}

func TestStabilizesOnFamilies(t *testing.T) {
	graphs := []graph.Graph{
		graph.NewClique(16),
		graph.Cycle(16),
		graph.Star(16),
		graph.Path(12),
		graph.Hypercube(4),
		graph.Lollipop(6, 6),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			p := New()
			res := sim.Run(g, p, xrand.New(11), sim.Options{})
			if !res.Stabilized {
				t.Fatalf("no stabilization in %d steps", res.Steps)
			}
			if sim.CountLeaders(g, p) != 1 || p.Leaders() != 1 {
				t.Fatalf("leaders: scan %d counter %d", sim.CountLeaders(g, p), p.Leaders())
			}
		})
	}
}

func TestCandidateSubsetInput(t *testing.T) {
	g := graph.Cycle(12)
	p := NewWithCandidates([]int{3, 7, 9})
	res := sim.Run(g, p, xrand.New(2), sim.Options{})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	// Only an original candidate can win: followers are never promoted.
	if res.Leader != 3 && res.Leader != 7 && res.Leader != 9 {
		t.Fatalf("leader %d was not a candidate", res.Leader)
	}
}

func TestSingleCandidateStabilizesImmediately(t *testing.T) {
	g := graph.Path(6)
	p := NewWithCandidates([]int{2})
	p.Reset(g, xrand.New(1))
	if !p.Stable() {
		t.Fatal("single candidate with one black token must already be stable")
	}
	if p.Output(2) != core.Leader {
		t.Fatal("candidate must output leader")
	}
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { NewWithCandidates(nil) })
	mustPanic("out-of-range", func() {
		p := NewWithCandidates([]int{99})
		p.Reset(graph.Path(4), xrand.New(1))
	})
	mustPanic("duplicate", func() {
		p := NewWithCandidates([]int{1, 1})
		p.Reset(graph.Path(4), xrand.New(1))
	})
}

func TestCandidatesNeverReappear(t *testing.T) {
	g := graph.NewClique(10)
	p := New()
	r := xrand.New(9)
	p.Reset(g, r)
	wasFollower := make([]bool, g.N())
	for step := 0; step < 50000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		for _, w := range []int{u, v} {
			cand := p.State(w).Candidate()
			if wasFollower[w] && cand {
				t.Fatalf("node %d became candidate again at step %d", w, step)
			}
			if !cand {
				wasFollower[w] = true
			}
		}
	}
}

func TestStateCountAndName(t *testing.T) {
	p := New()
	if p.StateCount(1000) != 6 {
		t.Fatal("state count must be 6")
	}
	if p.Name() != "six-state" {
		t.Fatalf("name %q", p.Name())
	}
}

func TestStabilityIsPermanent(t *testing.T) {
	// After Stable() first holds, keep stepping: output must never change.
	g := graph.Cycle(10)
	p := New()
	r := xrand.New(21)
	res := sim.Run(g, p, r, sim.Options{})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	leader := res.Leader
	for step := 0; step < 20000; step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if !p.Stable() {
			t.Fatalf("stability lost at extra step %d", step)
		}
		if p.Output(leader) != core.Leader {
			t.Fatalf("leader output changed at extra step %d", step)
		}
	}
	if sim.CountLeaders(g, p) != 1 {
		t.Fatal("leader count changed after stability")
	}
}

// TestTableMatchesStep — the table that Step runs agrees with the rule
// function core.TokenTransition on every state pair, roles and
// stability weights included, and is built once: every instance, with
// or without a candidate set, runs the same table.
func TestTableMatchesStep(t *testing.T) {
	tab := New().Table()
	if tab == nil || tab.K() != 6 {
		t.Fatalf("table %+v, want a 6-state machine", tab)
	}
	if New().Table() != tab || NewWithCandidates([]int{0, 2}).Table() != tab {
		t.Fatal("two instances returned different tables")
	}
	for a := uint8(0); a < 6; a++ {
		if tab.Role(a) != core.TokenState(a).Role() {
			t.Fatalf("state %d role %v, want %v", a, tab.Role(a), core.TokenState(a).Role())
		}
		for b := uint8(0); b < 6; b++ {
			wa, wb := core.TokenTransition(core.TokenState(a), core.TokenState(b))
			na, nb := tab.Next(a, b)
			if na != uint8(wa) || nb != uint8(wb) {
				t.Fatalf("(%d,%d): table (%d,%d), TokenTransition (%d,%d)", a, b, na, nb, wa, wb)
			}
		}
	}
	// The stability functional is #black + #white − 1.
	black, white := uint8(core.CandidateBlack), uint8(core.FollowerWhite)
	for _, c := range []struct {
		states []uint8
		stable bool
	}{
		{[]uint8{black, black}, false},
		{[]uint8{black, white}, false},
		{[]uint8{black, uint8(core.FollowerNone)}, true},
	} {
		if _, gap := tab.Counters(c.states); (gap == 0) != c.stable {
			t.Fatalf("%v: gap %d, want stable=%v", c.states, gap, c.stable)
		}
	}
}
