// Package beauquier implements the constant-state (6-state) stable leader
// election protocol of Beauquier, Blanchard and Burman (OPODIS 2013), the
// paper's space-efficiency baseline (Theorem 16).
//
// Each leader candidate starts holding a black token. Tokens perform
// population-model random walks (they swap carriers on every interaction).
// When two black tokens meet, one is recolored white; when a candidate
// receives a white token, it becomes a follower and destroys the token.
// The invariant #candidates = #black + #white with #black >= 1 guarantees
// exactly one candidate survives; the configuration is stable once one
// black and no white tokens remain.
//
// Expected stabilization time is O(H(G)·n log n), where H(G) is the
// worst-case hitting time of a classic random walk on G (Theorem 16,
// via Sudo et al. 2021).
//
// The protocol is sim.Tabular: its six states fit a compiled
// core.TransitionTable, generated from Step itself (a two-node probe per
// state pair), so execution plans fuse it into the table kernels while
// the hand-written transition stays the single source of truth.
package beauquier

import (
	"fmt"
	"sync"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// Protocol is the six-state token protocol. Use New or NewWithCandidates.
// States are stored as raw core.TokenState bytes so the fused table
// kernels can operate on them in place.
type Protocol struct {
	candidates []int // nil means "all nodes are candidates"
	states     []uint8
	counts     core.TokenCounts
	table      *core.TransitionTable
}

var _ sim.Tabular = (*Protocol)(nil)

// New returns the protocol with every node starting as a leader candidate,
// the standard leader-election input.
func New() *Protocol { return &Protocol{} }

// NewWithCandidates returns the protocol with the given nonempty candidate
// set as input, the variant used as a backup protocol (Theorem 16 input).
func NewWithCandidates(candidates []int) *Protocol {
	if len(candidates) == 0 {
		panic("beauquier: candidate set must be nonempty")
	}
	return &Protocol{candidates: append([]int(nil), candidates...)}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "six-state" }

// StateCount returns 6 for any population size.
func (p *Protocol) StateCount(int) float64 { return 6 }

// Reset implements sim.Protocol.
func (p *Protocol) Reset(g graph.Graph, _ *xrand.Rand) {
	n := g.N()
	p.states = make([]uint8, n)
	p.counts = core.TokenCounts{}
	if p.candidates == nil {
		for v := range p.states {
			p.states[v] = uint8(core.CandidateBlack)
		}
		p.counts = core.TokenCounts{Candidates: n, Black: n}
		return
	}
	for _, v := range p.candidates {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("beauquier: candidate %d out of range [0,%d)", v, n))
		}
		if p.states[v] == uint8(core.CandidateBlack) {
			panic(fmt.Sprintf("beauquier: duplicate candidate %d", v))
		}
		p.states[v] = uint8(core.CandidateBlack)
		p.counts.Add(core.CandidateBlack, 1)
	}
}

// Step implements sim.Protocol.
func (p *Protocol) Step(u, v int) {
	a, b := core.TokenState(p.states[u]), core.TokenState(p.states[v])
	na, nb := core.TokenTransition(a, b)
	if na != a {
		p.counts.Add(a, -1)
		p.counts.Add(na, 1)
		p.states[u] = uint8(na)
	}
	if nb != b {
		p.counts.Add(b, -1)
		p.counts.Add(nb, 1)
		p.states[v] = uint8(nb)
	}
}

// Output implements sim.Protocol.
func (p *Protocol) Output(v int) core.Role { return core.TokenState(p.states[v]).Role() }

// Leaders implements sim.Protocol.
func (p *Protocol) Leaders() int { return p.counts.Candidates }

// Stable implements sim.Protocol: one black token, no white tokens.
func (p *Protocol) Stable() bool { return p.counts.Stable() }

// Counts exposes the token counters for tests and instrumentation.
func (p *Protocol) Counts() core.TokenCounts { return p.counts }

// State exposes node v's raw state for tests and instrumentation.
func (p *Protocol) State(v int) core.TokenState { return core.TokenState(p.states[v]) }

// Table implements sim.Tabular. The six persistent states are the
// core.TokenState byte values 0..5; the stability functional is
// #black + #white − 1, which is zero exactly on stable configurations
// by the invariant #black >= 1. Unless UseTable installed one, every
// instance returns the same table, built once per process by probing
// Step itself over every state pair, so the hand-written transition
// remains the single source of truth.
func (p *Protocol) Table() *core.TransitionTable {
	if p.table != nil {
		return p.table
	}
	return sharedTable()
}

// sharedTable is the process-wide probe-built table.
var sharedTable = sync.OnceValue(func() *core.TransitionTable {
	tab, err := core.NewTransitionTable(6,
		func(a, b uint8) (uint8, uint8) {
			probe := &Protocol{states: []uint8{a, b}}
			probe.Step(0, 1)
			return probe.states[0], probe.states[1]
		},
		func(s uint8) core.Role { return core.TokenState(s).Role() },
		func(s uint8) int {
			if tok := core.TokenState(s).Token(); tok == core.TokenBlack || tok == core.TokenWhite {
				return 1
			}
			return 0
		},
		1)
	if err != nil {
		panic("beauquier: " + err.Error())
	}
	return tab
})

// UseTable installs a previously compiled transition table (revived
// from a binary snapshot) so Table returns it without re-probing Step.
// Only the state count is checked here: a table that cleared
// core.TableFromParts is internally consistent, and the probe-built
// table is deterministic, so a table an encoder obtained from Table()
// is the one Table() would rebuild.
func (p *Protocol) UseTable(t *core.TransitionTable) error {
	if t == nil || t.K() != 6 {
		return fmt.Errorf("beauquier: preloaded table must have 6 states")
	}
	p.table = t
	return nil
}

// TableStates implements sim.Tabular: the live state bytes, aliased.
func (p *Protocol) TableStates() []uint8 { return p.states }

// ReloadCounters implements sim.Tabular: after a fused kernel mutated
// the state array directly, rebuild the token counters by full scan.
// (The table's two integers cannot be split back into black vs white
// counts, so the scan is the reconciliation.) The kernel's leader count
// doubles as a cross-check of the counter maintenance.
func (p *Protocol) ReloadCounters(leaders, _ int) {
	var c core.TokenCounts
	for _, s := range p.states {
		c.Add(core.TokenState(s), 1)
	}
	if c.Candidates != leaders {
		panic(fmt.Sprintf("beauquier: table kernel leader count %d, state scan %d", leaders, c.Candidates))
	}
	p.counts = c
}
