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
// The protocol is sim.Tabular: it embeds a core.Machine running the
// six-state table compiled from core.TokenTransition, so execution plans
// fuse it into the table kernels and Step is a table lookup.
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
// States are raw core.TokenState bytes.
type Protocol struct {
	core.Machine
	candidates []int // nil means "all nodes are candidates"
}

var _ sim.Tabular = (*Protocol)(nil)

// New returns the protocol with every node starting as a leader candidate,
// the standard leader-election input.
func New() *Protocol { return &Protocol{Machine: core.NewMachine(sharedTable())} }

// NewWithCandidates returns the protocol with the given nonempty candidate
// set as input, the variant used as a backup protocol (Theorem 16 input).
func NewWithCandidates(candidates []int) *Protocol {
	if len(candidates) == 0 {
		panic("beauquier: candidate set must be nonempty")
	}
	p := New()
	p.candidates = append([]int(nil), candidates...)
	return p
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "six-state" }

// StateCount returns 6 for any population size.
func (p *Protocol) StateCount(int) float64 { return 6 }

// Reset implements sim.Protocol.
func (p *Protocol) Reset(g graph.Graph, _ *xrand.Rand) {
	n := g.N()
	states := make([]uint8, n)
	if p.candidates == nil {
		for v := range states {
			states[v] = uint8(core.CandidateBlack)
		}
	}
	for _, v := range p.candidates {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("beauquier: candidate %d out of range [0,%d)", v, n))
		}
		if states[v] == uint8(core.CandidateBlack) {
			panic(fmt.Sprintf("beauquier: duplicate candidate %d", v))
		}
		states[v] = uint8(core.CandidateBlack)
	}
	p.Load(states)
}

// Counts returns the token counters by a scan (tests).
func (p *Protocol) Counts() core.TokenCounts {
	var c core.TokenCounts
	for _, s := range p.States() {
		c.Add(core.TokenState(s), 1)
	}
	return c
}

// State exposes node v's raw state for tests and instrumentation.
func (p *Protocol) State(v int) core.TokenState { return core.TokenState(p.States()[v]) }

// sharedTable is the six-state machine, built once per process. The six
// persistent states are the core.TokenState byte values 0..5; the
// stability functional is #black + #white − 1, which is zero exactly on
// stable configurations by the invariant #black >= 1.
var sharedTable = sync.OnceValue(func() *core.TransitionTable {
	tab, err := core.NewTransitionTable(6,
		func(a, b uint8) (uint8, uint8) {
			na, nb := core.TokenTransition(core.TokenState(a), core.TokenState(b))
			return uint8(na), uint8(nb)
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
// from a binary snapshot) in place of the process-wide one; call it
// before Reset. Only the state count is checked here: a table that
// cleared core.TableFromParts is internally consistent, and the
// built table is deterministic, so a table an encoder obtained from
// Table() is the one New would build.
func (p *Protocol) UseTable(t *core.TransitionTable) error {
	if t == nil || t.K() != 6 {
		return fmt.Errorf("beauquier: preloaded table must have 6 states")
	}
	p.Machine = core.NewMachine(t)
	return nil
}
