package star

import (
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

func TestStabilizesInOneStep(t *testing.T) {
	// Table 1, row "Stars": O(1) stabilization time. On a star every
	// interaction involves the center, so step 1 always stabilizes.
	for _, n := range []int{2, 3, 10, 100, 1000} {
		g := graph.Star(n)
		p := New()
		res := sim.Run(g, p, xrand.New(uint64(n)), sim.Options{})
		if !res.Stabilized || res.Steps != 1 {
			t.Fatalf("n=%d: result %+v, want stabilization at step 1", n, res)
		}
		if sim.CountLeaders(g, p) != 1 {
			t.Fatalf("n=%d: %d leaders", n, sim.CountLeaders(g, p))
		}
	}
}

func TestLeaderIsEndpointOfFirstInteraction(t *testing.T) {
	g := graph.Star(8)
	p := New()
	res := sim.Run(g, p, xrand.New(4), sim.Options{
		Sampler: &sim.ScriptedSampler{Pairs: [][2]int{{3, 0}}},
	})
	if !res.Stabilized || res.Leader != 3 {
		t.Fatalf("result %+v, want initiator 3 as leader", res)
	}
	if p.Output(0) != core.Follower {
		t.Fatal("responder must be follower")
	}
}

func TestOutputsStableForever(t *testing.T) {
	g := graph.Star(20)
	p := New()
	r := xrand.New(6)
	res := sim.Run(g, p, r, sim.Options{})
	leader := res.Leader
	for i := 0; i < 5000; i++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if !p.Stable() || sim.FindLeader(g, p) != leader {
			t.Fatalf("output changed after stabilization at extra step %d", i)
		}
	}
}

func TestRejectsNonStar(t *testing.T) {
	for _, g := range []graph.Graph{graph.Cycle(5), graph.Path(4), graph.NewClique(4)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", g.Name())
				}
			}()
			New().Reset(g, xrand.New(1))
		}()
	}
}

func TestTwoNodeGraphAllowed(t *testing.T) {
	// K_2 is the 2-node star; the first interaction elects the initiator.
	g := graph.Star(2)
	p := New()
	res := sim.Run(g, p, xrand.New(1), sim.Options{})
	if !res.Stabilized || res.Steps != 1 {
		t.Fatalf("result %+v", res)
	}
}

func TestStateCount(t *testing.T) {
	if New().StateCount(1000) != 3 {
		t.Fatal("state count must be 3")
	}
}

// TestCountersMatchScans cross-checks the O(1) Leaders counter and the
// Stable predicate against full output scans after every interaction of
// a scripted run — the same discipline beauquier's counters get.
func TestCountersMatchScans(t *testing.T) {
	g := graph.Star(12)
	p := New()
	p.Reset(g, xrand.New(9))
	r := xrand.New(10)
	for i := 0; i < 500; i++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if scan := sim.CountLeaders(g, p); scan != p.Leaders() {
			t.Fatalf("step %d: Leaders() %d != scan %d", i, p.Leaders(), scan)
		}
		if want := p.Leaders() == 1; p.Stable() != want {
			t.Fatalf("step %d: Stable() %v with %d leaders", i, p.Stable(), p.Leaders())
		}
	}
	if !p.Stable() {
		t.Fatal("500 star interactions must stabilize")
	}
}

// TestTableMatchesStep — the generated transition table agrees with the
// hand-written Step on every state pair, roles and counters included,
// and is built once: every instance returns the same table.
func TestTableMatchesStep(t *testing.T) {
	p := New()
	tab := p.Table()
	if tab == nil || tab.K() != 3 {
		t.Fatalf("table %+v, want a 3-state machine", tab)
	}
	if New().Table() != tab {
		t.Fatal("two instances returned different tables")
	}
	for a := uint8(0); a < 3; a++ {
		wantRole := core.Follower
		if a == leader {
			wantRole = core.Leader
		}
		if tab.Role(a) != wantRole {
			t.Fatalf("state %d role %v, want %v", a, tab.Role(a), wantRole)
		}
		for b := uint8(0); b < 3; b++ {
			probe := &Protocol{states: []uint8{a, b}}
			probe.Step(0, 1)
			na, nb := tab.Next(a, b)
			if na != probe.states[0] || nb != probe.states[1] {
				t.Fatalf("(%d,%d): table (%d,%d), Step (%d,%d)", a, b, na, nb, probe.states[0], probe.states[1])
			}
		}
	}
	// The stability functional is leaders == 1 exactly.
	for _, c := range []struct {
		states []uint8
		stable bool
	}{
		{[]uint8{undecided, undecided, undecided}, false},
		{[]uint8{leader, follower, undecided}, true},
		{[]uint8{leader, leader, follower}, false},
	} {
		if _, gap := tab.Counters(c.states); (gap == 0) != c.stable {
			t.Fatalf("%v: gap %d, want stable=%v", c.states, gap, c.stable)
		}
	}
}
