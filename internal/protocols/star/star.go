// Package star implements the trivial constant-state protocol that elects
// a leader in a single interaction on star graphs (Table 1, row "Stars").
//
// Every interaction on a star involves the center, so the very first
// interaction decides the center and creates exactly one leader; every
// later interaction only turns undecided leaves (which already output
// follower) into decided followers, leaving all outputs unchanged. The
// configuration after step one is therefore already stable — stabilization
// time is exactly 1 regardless of n, illustrating why no general Ω(n log n)
// lower bound can hold on all graphs (Section 1.3).
//
// The protocol is only correct on stars; Reset rejects other graphs. Its
// three states make it sim.Tabular: the compiled transition table is
// generated from Step itself, so plans fuse it into the table kernels.
package star

import (
	"fmt"
	"sync"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// state is one of the three node states.
type state = uint8

const (
	undecided state = iota // initial; outputs follower
	leader
	follower
)

// Protocol is the trivial star protocol.
type Protocol struct {
	states  []uint8
	leaders int
	table   *core.TransitionTable
}

var _ sim.Tabular = (*Protocol)(nil)

// New returns the star protocol.
func New() *Protocol { return &Protocol{} }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "star-trivial" }

// StateCount returns 3.
func (p *Protocol) StateCount(int) float64 { return 3 }

// Reset implements sim.Protocol. It panics unless g is a star (one center
// adjacent to all other nodes, which are leaves).
func (p *Protocol) Reset(g graph.Graph, _ *xrand.Rand) {
	n := g.N()
	if n >= 3 {
		centers := 0
		for v := 0; v < n; v++ {
			switch g.Degree(v) {
			case n - 1:
				centers++
			case 1:
			default:
				panic(fmt.Sprintf("star: graph %q is not a star (degree(%d)=%d)",
					g.Name(), v, g.Degree(v)))
			}
		}
		if centers != 1 {
			panic(fmt.Sprintf("star: graph %q is not a star (%d centers)", g.Name(), centers))
		}
	}
	p.states = make([]uint8, n)
	p.leaders = 0
}

// Step implements sim.Protocol. Rules:
//
//	U + U -> L + F   (the only U+U edge on a star involves the center)
//	L + U -> L + F, U + L -> F + L
//	F + U -> F + F, U + F -> F + F
//
// all other pairs are no-ops.
func (p *Protocol) Step(u, v int) {
	a, b := p.states[u], p.states[v]
	switch {
	case a == undecided && b == undecided:
		p.states[u] = leader
		p.states[v] = follower
		p.leaders++
	case a == undecided:
		p.states[u] = follower
	case b == undecided:
		p.states[v] = follower
	}
}

// Output implements sim.Protocol: undecided nodes output follower.
func (p *Protocol) Output(v int) core.Role {
	if p.states[v] == leader {
		return core.Leader
	}
	return core.Follower
}

// Leaders implements sim.Protocol.
func (p *Protocol) Leaders() int { return p.leaders }

// Stable implements sim.Protocol. On a star, one leader exists only after
// the center was decided, after which no interaction changes any output.
func (p *Protocol) Stable() bool { return p.leaders == 1 }

// Table implements sim.Tabular. The stability functional is the leader
// count itself with target 1 — on stars leaders only ever reaches one.
// Unless UseTable installed one, every instance returns the same table,
// built once per process by probing Step over every state pair.
func (p *Protocol) Table() *core.TransitionTable {
	if p.table != nil {
		return p.table
	}
	return sharedTable()
}

// sharedTable is the process-wide probe-built table.
var sharedTable = sync.OnceValue(func() *core.TransitionTable {
	tab, err := core.NewTransitionTable(3,
		func(a, b uint8) (uint8, uint8) {
			probe := &Protocol{states: []uint8{a, b}}
			probe.Step(0, 1)
			return probe.states[0], probe.states[1]
		},
		func(s uint8) core.Role {
			if s == leader {
				return core.Leader
			}
			return core.Follower
		},
		func(s uint8) int {
			if s == leader {
				return 1
			}
			return 0
		},
		1)
	if err != nil {
		panic("star: " + err.Error())
	}
	return tab
})

// UseTable installs a previously compiled transition table (revived
// from a binary snapshot) so Table returns it without re-probing Step.
func (p *Protocol) UseTable(t *core.TransitionTable) error {
	if t == nil || t.K() != 3 {
		return fmt.Errorf("star: preloaded table must have 3 states")
	}
	p.table = t
	return nil
}

// TableStates implements sim.Tabular: the live state bytes, aliased.
func (p *Protocol) TableStates() []uint8 { return p.states }

// ReloadCounters implements sim.Tabular: the leader count is the only
// counter, and the table maintains it exactly.
func (p *Protocol) ReloadCounters(leaders, _ int) { p.leaders = leaders }
