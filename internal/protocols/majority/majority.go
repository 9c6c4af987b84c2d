// Package majority implements exact two-valued majority on arbitrary
// connected interaction graphs with four states, the "other fundamental
// problem" the paper's conclusions point to as a direction for the same
// token-based techniques (cf. Bénézit, Thiran and Vetterli's interval
// consensus and the population-protocol majority literature).
//
// Each node starts with an opinion in {0, 1} held strongly. Strong
// opinions act like the paper's random-walking tokens:
//
//   - two opposite strong opinions annihilate into weak opinions
//     (preserving the difference #strong1 − #strong0, the invariant that
//     makes the protocol exact);
//   - a strong opinion meeting a weak one moves across the edge and
//     converts the weak node's sign, performing exactly the
//     population-model random walk of Section 4;
//   - weak opinions never interact with each other.
//
// Once the minority's strong opinions are annihilated (a meeting-time
// argument, Lemma 18-style), the surviving strong opinions walk the graph
// converting every weak node (a hitting-time argument, Lemma 19-style),
// so stabilization takes O(H(G)·n·log n) expected steps — the same bound
// as the six-state leader election protocol. Ties (equal counts) never
// stabilize and are rejected as input.
//
// The protocol implements sim.Protocol so it runs through the compiled
// execution plans like every leader-election protocol: Output maps
// opinion 1 to core.Leader and opinion 0 to core.Follower (so Leaders()
// counts the nodes currently outputting 1 — a Result's Leader field is
// usually −1, majority being a many-winners problem). Its four states
// also make it sim.Tabular: it embeds a core.Machine running the table
// compiled from transition. The table depends on the input's majority
// sign (the stability functional counts the losing side's nodes), so
// there is one per sign.
package majority

import (
	"fmt"
	"sync"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// state is one of the four node states.
type state = uint8

const (
	weak0 state = iota
	weak1
	strong0
	strong1
)

// Protocol is the 4-state exact majority protocol.
type Protocol struct {
	core.Machine
	inputs []bool // initial opinions, fixed at New
	margin int    // #ones − #zeros of inputs
}

var _ sim.Tabular = (*Protocol)(nil)

// New returns the protocol with the given initial opinions (length must
// equal the graph size at Reset; must not be a tie). Tie inputs get no
// table: Table returns nil and Reset panics.
func New(inputs []bool) *Protocol {
	ones := 0
	for _, b := range inputs {
		if b {
			ones++
		}
	}
	p := &Protocol{inputs: append([]bool(nil), inputs...), margin: 2*ones - len(inputs)}
	switch {
	case p.margin > 0:
		p.Machine = core.NewMachine(onesWinTable())
	case p.margin < 0:
		p.Machine = core.NewMachine(zerosWinTable())
	}
	return p
}

// Name identifies the protocol.
func (p *Protocol) Name() string { return "four-state-majority" }

// StateCount returns 4.
func (p *Protocol) StateCount(int) float64 { return 4 }

// Reset initializes every node to a strong copy of its input opinion.
func (p *Protocol) Reset(g graph.Graph, _ *xrand.Rand) {
	n := g.N()
	if len(p.inputs) != n {
		panic(fmt.Sprintf("majority: %d inputs for %d nodes", len(p.inputs), n))
	}
	if p.margin == 0 {
		panic("majority: tie inputs never stabilize; supply a strict majority")
	}
	states := make([]uint8, n)
	for v, b := range p.inputs {
		if b {
			states[v] = strong1
		} else {
			states[v] = strong0
		}
	}
	p.Load(states)
}

// transition implements the four-state rules (u initiator, v responder).
func transition(a, b state) (state, state) {
	switch {
	// Annihilation: opposite strong opinions cancel into weak ones.
	case a == strong0 && b == strong1:
		return weak0, weak1
	case a == strong1 && b == strong0:
		return weak1, weak0
	// Walk + convert: a strong opinion crosses the edge, converting the
	// weak node it leaves behind to its own sign.
	case a == strong0 && (b == weak0 || b == weak1):
		return weak0, strong0
	case a == strong1 && (b == weak0 || b == weak1):
		return weak1, strong1
	case b == strong0 && (a == weak0 || a == weak1):
		return strong0, weak0
	case b == strong1 && (a == weak0 || a == weak1):
		return strong1, weak1
	// Strong agreement or weak pairs: no change.
	default:
		return a, b
	}
}

// Opinion returns node v's current output opinion.
func (p *Protocol) Opinion(v int) bool { return isOne(p.States()[v]) }

// isOne reports whether state s outputs opinion 1.
func isOne(s state) bool { return s == weak1 || s == strong1 }

// Ones returns the number of nodes currently outputting opinion 1: the
// machine's leader count, opinion 1 being encoded as core.Leader.
func (p *Protocol) Ones() int { return p.Leaders() }

// StrongDifference returns #strong1 − #strong0 by a scan: the conserved
// quantity equal to the input difference; tests assert its invariance.
func (p *Protocol) StrongDifference() int {
	d := 0
	for _, s := range p.States() {
		switch s {
		case strong1:
			d++
		case strong0:
			d--
		}
	}
	return d
}

var (
	onesWinTable  = sync.OnceValue(func() *core.TransitionTable { return buildTable(true) })
	zerosWinTable = sync.OnceValue(func() *core.TransitionTable { return buildTable(false) })
)

// buildTable compiles the machine for inputs whose majority opinion is
// 1 (onesWin) or 0. Opinion 1 outputs Leader, opinion 0 Follower. The
// stability functional counts the losing side's nodes (weak and strong)
// with target 0: the conserved strong difference keeps the winning
// side's strong count positive, so "no loser left" is exactly "only one
// sign remains", after which no rule can change an output.
func buildTable(onesWin bool) *core.TransitionTable {
	tab, err := core.NewTransitionTable(4, transition,
		func(s uint8) core.Role {
			if isOne(s) {
				return core.Leader
			}
			return core.Follower
		},
		func(s uint8) int {
			if isOne(s) != onesWin {
				return 1
			}
			return 0
		},
		0)
	if err != nil {
		panic("majority: " + err.Error())
	}
	return tab
}
