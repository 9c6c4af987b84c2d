// Package fastelect implements the paper's main contribution (Section 5,
// Theorem 24): a space-efficient leader election protocol that stabilizes
// in O(B(G)·log n) steps in expectation and with high probability using
// O(log n · h) states, where h ∈ O(log(Δ/β · log n)) ⊆ O(log n).
//
// The protocol composes three mechanisms:
//
//  1. a streak clock (Section 5.1): nodes count consecutive initiator
//     roles; completing a streak of length h is a local clock tick that a
//     degree-d node produces every E[X(d)] = (2^{h+1}−2)·m/d steps, so with
//     h ≈ log₂(B(G)·Δ/m) maximum-degree nodes tick about once per
//     broadcast time;
//  2. a level tournament: leaders gain a level per tick; levels ≥ L are
//     broadcast (Rule 3), and a node that sees a strictly larger level
//     ≥ L becomes a follower (Rule 2) — low-degree nodes tick too slowly
//     to keep up and drop out, and the surviving high-degree leaders
//     eliminate each other within O(log n) phases of O(B(G)) steps;
//  3. an always-correct backup: the first node to reach the level cap α·L
//     switches to the six-state token protocol seeded with its status, and
//     the cap value recruits every other node into the backup via the
//     level broadcast, guaranteeing finite expected stabilization time
//     even in the O(n^{-τ})-probability event that the tournament fails.
//
// A node is stored as two fields: its streak counter (one byte) and one
// level-machine state that covers mechanisms 2 and 3. A fast-phase node at
// level ℓ < αL with leader status b is state 2ℓ + b; a backup node holding
// token-machine state t is state 2αL + t. That is k = 2αL + 6 states, so
// with the streak the protocol uses (h+1)·(2αL+6) states per node.
//
// An interaction is the clock followed by one machine transition. The
// clock resets the responder's streak and advances the initiator's; a
// completed streak maps the initiator through the tick map (Rule 1). The
// machine transition (Rules 2–3, backup entry, token machine) is one
// pure function of the two states. For k ≤ core.MaxTableStates it is
// compiled once per (L, αL) into a core.TransitionTable, whose cells
// also carry the interaction's change to the leader count and the
// stability gap, so Step is a table lookup; larger machines call the
// function directly.
//
// A configuration is stable exactly when one node outputs leader (see
// Stable for the invariant argument).
package fastelect

import (
	"fmt"
	"math"
	"sync"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// maxH bounds the streak length: a longer streak ticks once per ≥ 2^62
// interactions, which no run reaches.
const maxH = 60

// Params are the protocol's non-uniform parameters. Like the paper's
// protocol, they may depend on high-level structural information about the
// graph (n, m, Δ and the broadcast time B(G)) but are identical at every
// node.
type Params struct {
	// H is the streak length; ticks arrive every (2^{H+1}−2)·m/d steps at
	// a degree-d node.
	H int
	// L is the elimination-phase threshold: levels ≥ L broadcast and
	// eliminate strictly smaller leaders.
	L int
	// AlphaL is the level cap α·L; reaching it triggers the backup.
	AlphaL int
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.H < 1 || p.L < 1 || p.AlphaL <= p.L {
		return fmt.Errorf("fastelect: invalid params %+v", p)
	}
	return nil
}

// PaperParams returns the parameters exactly as fixed in Section 5.2:
// h = 8 + ⌈log₂(B(G)·Δ/m)⌉ and L = ⌈2τ·log₂ n⌉, with the level cap set to
// α = 8 (the paper requires a sufficiently large constant α(τ)). These
// deliver the w.h.p. guarantees but carry a ~2⁹ constant in the clock
// rate; use TunedParams for laptop-scale measurements of the same
// asymptotic shape.
func PaperParams(g graph.Graph, broadcastTime float64, tau int) Params {
	if tau < 1 {
		tau = 1
	}
	n := float64(g.N())
	h := 8 + int(math.Ceil(math.Log2(broadcastTime*float64(graph.MaxDegree(g))/float64(g.M()))))
	if h < 1 {
		h = 1
	}
	l := int(math.Ceil(2 * float64(tau) * math.Log2(n)))
	if l < 1 {
		l = 1
	}
	return Params{H: h, L: l, AlphaL: 8 * l}
}

// TunedParams returns parameters with the same functional form but
// laptop-friendly constants: h = ⌈log₂(B·Δ/m)⌉ + 2 (ticks every ≈ 8·B(G)
// steps at maximum-degree nodes instead of ≈ 512·B(G)) and L = ⌈log₂ n⌉+2.
// The asymptotic scaling O(B(G)·log n) is unchanged; only the leading
// constant and the failure probability differ, and failures are absorbed
// by the backup.
func TunedParams(g graph.Graph, broadcastTime float64) Params {
	n := float64(g.N())
	h := 2 + int(math.Ceil(math.Log2(broadcastTime*float64(graph.MaxDegree(g))/float64(g.M()))))
	if h < 1 {
		h = 1
	}
	l := int(math.Ceil(math.Log2(n))) + 2
	return Params{H: h, L: l, AlphaL: 6 * l}
}

// States returns k = 2αL + 6, the number of level-machine states.
func (p Params) States() int { return 2*p.AlphaL + 6 }

// backupBase is the first backup state, 2αL.
func (p Params) backupBase() uint32 { return uint32(2 * p.AlphaL) }

// FastState encodes a fast-phase node at level < αL.
func (p Params) FastState(level int, leader bool) uint32 {
	s := uint32(2 * level)
	if leader {
		s |= 1
	}
	return s
}

// backupState encodes a backup node holding token-machine state t.
func (p Params) backupState(t core.TokenState) uint32 { return p.backupBase() + uint32(t) }

// level returns state s's level; backup nodes sit at the cap αL.
func (p Params) level(s uint32) int {
	if s >= p.backupBase() {
		return p.AlphaL
	}
	return int(s >> 1)
}

// role returns state s's output: fast-phase leaders and backup
// candidates output Leader.
func (p Params) role(s uint32) core.Role {
	if base := p.backupBase(); s >= base {
		return core.TokenState(s - base).Role()
	}
	if s&1 == 1 {
		return core.Leader
	}
	return core.Follower
}

// gapWeight is state s's weight in the stability gap Σ_v gapWeight − 1:
// one for a leader output plus one for a white backup token. Every
// reachable configuration has a leader (see Stable), so the gap is zero
// exactly when one node outputs leader and no white token is left.
func (p Params) gapWeight(s uint32) int {
	w := 0
	if p.role(s) == core.Leader {
		w++
	}
	if base := p.backupBase(); s >= base && core.TokenState(s-base).Token() == core.TokenWhite {
		w++
	}
	return w
}

// Tick is Rule 1, applied when s's node completes a streak: a fast-phase
// leader gains a level, and one reaching the cap enters the backup as a
// black-token candidate. Followers and backup nodes are unchanged. A tick
// never changes a node's output or gap weight.
func (p Params) Tick(s uint32) uint32 {
	if s >= p.backupBase() || s&1 == 0 {
		return s
	}
	if s += 2; s >= p.backupBase() {
		return p.backupState(core.CandidateBlack)
	}
	return s
}

// rule is the machine transition of one interaction, initiator state a
// and responder state b, after the clock: Rules 2 and 3 (a level ≥ L
// demotes and lifts a strictly lower node), backup entry at the cap and
// the six-state token machine between two backup nodes. It is the
// single source of truth for the compiled table.
func (p Params) rule(a, b uint32) (uint32, uint32) {
	la, lb := p.level(a), p.level(b)
	switch {
	case la > lb && la >= p.L:
		b = p.demote(la)
	case lb > la && lb >= p.L:
		a = p.demote(lb)
	}
	if base := p.backupBase(); a >= base && b >= base {
		ta, tb := core.TokenTransition(core.TokenState(a-base), core.TokenState(b-base))
		a, b = base+uint32(ta), base+uint32(tb)
	}
	return a, b
}

// demote is the state of a node that saw a strictly larger level ℓ ≥ L:
// a follower at level ℓ (Rule 2 demotes, Rule 3 lifts), which at the cap
// enters the backup without a token. Backup nodes sit at the cap, so they
// are never the lower node.
func (p Params) demote(level int) uint32 {
	if level == p.AlphaL {
		return p.backupState(core.FollowerNone)
	}
	return p.FastState(level, false)
}

// machine is the per-parameter compiled part of the protocol, shared by
// every instance with the same (L, αL). machines caches it for the
// process: protocols are built per trial, and the table costs k² rule
// evaluations.
type machine struct {
	tick  []uint32              // Tick over all k states
	table *core.TransitionTable // rule compiled; nil when k > core.MaxTableStates
}

var (
	machinesMu sync.Mutex
	machines   = map[[2]int]*machine{}
)

// compile returns the machine for p, building it on first use.
func compile(p Params) *machine {
	key := [2]int{p.L, p.AlphaL}
	machinesMu.Lock()
	defer machinesMu.Unlock()
	if m, ok := machines[key]; ok {
		return m
	}
	k := p.States()
	m := &machine{tick: make([]uint32, k)}
	for s := range m.tick {
		m.tick[s] = p.Tick(uint32(s))
	}
	if k <= core.MaxTableStates {
		tab, err := core.NewTransitionTable(k,
			func(a, b uint8) (uint8, uint8) {
				na, nb := p.rule(uint32(a), uint32(b))
				return uint8(na), uint8(nb)
			},
			func(s uint8) core.Role { return p.role(uint32(s)) },
			func(s uint8) int { return p.gapWeight(uint32(s)) }, 1)
		if err != nil {
			panic(err) // rule stays in range and its deltas are at most ±4
		}
		m.table = tab
	}
	machines[key] = m
	return m
}

// LevelTable returns the machine transition compiled for p (tick map
// not included), or nil when its k = 2αL+6 states exceed
// core.MaxTableStates. The table is built once per (L, αL) and shared.
func LevelTable(p Params) *core.TransitionTable {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return compile(p).table
}

// Protocol is the fast space-efficient protocol. Use New.
type Protocol struct {
	params Params
	h      uint8
	tick   []uint32 // the shared machine's tick map
	cells  []uint32 // the shared machine's table cells; nil without a table
	k      int

	streak []uint8
	state  []uint32

	leaders int // nodes outputting leader
	gap     int // Σ_v gapWeight(state(v)) − 1
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns the protocol with the given parameters.
func New(params Params) *Protocol {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if params.AlphaL > math.MaxUint16 {
		panic(fmt.Sprintf("fastelect: level cap %d exceeds uint16", params.AlphaL))
	}
	m := compile(params)
	p := &Protocol{params: params, tick: m.tick, k: params.States()}
	if m.table != nil {
		p.cells = m.table.Cells()
	}
	return p
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "fast-space-efficient" }

// Params returns the configured parameters.
func (p *Protocol) Params() Params { return p.params }

// StateCount returns the number of distinct states: fast-phase nodes use
// (h+1)·2·(αL) combinations (streak × status × level below the cap) and
// backup nodes use (h+1)·6 (streak × token machine), matching the paper's
// O(h·L) = O(log n · h(G)) bound.
func (p *Protocol) StateCount(int) float64 {
	return float64((p.params.H + 1) * p.params.States())
}

// Reset implements sim.Protocol: every node starts as a level-0 leader
// with an empty streak. It panics on a streak length above 60.
func (p *Protocol) Reset(g graph.Graph, _ *xrand.Rand) {
	if p.params.H > maxH {
		panic(fmt.Sprintf("fastelect: h = %d unreasonably large", p.params.H))
	}
	n := g.N()
	p.h = uint8(p.params.H)
	p.streak = make([]uint8, n)
	p.state = make([]uint32, n)
	start := p.params.FastState(0, true)
	for v := range p.state {
		p.state[v] = start
	}
	p.leaders = n
	p.gap = n - 1
}

// Step implements sim.Protocol.
func (p *Protocol) Step(u, v int) {
	// Streak clock: the responder resets, the initiator advances and a
	// completed streak ticks (Rule 1).
	p.streak[v] = 0
	a := p.state[u]
	if s := p.streak[u] + 1; s < p.h {
		p.streak[u] = s
	} else {
		p.streak[u] = 0
		a = p.tick[a]
	}
	b := p.state[v]
	if p.cells == nil {
		p.ruleStep(u, v, a, b)
		return
	}
	c := p.cells[int(a)*p.k+int(b)]
	p.state[u], p.state[v] = c>>8&0xff, c&0xff
	p.leaders += int(c>>16&0xff) - core.TableDeltaBias
	p.gap += int(c>>24) - core.TableDeltaBias
}

// ruleStep is Step's machine transition without a table (k above
// core.MaxTableStates).
func (p *Protocol) ruleStep(u, v int, a, b uint32) {
	na, nb := p.params.rule(a, b)
	p.state[u], p.state[v] = na, nb
	if na != a || nb != b {
		p.count(a, -1)
		p.count(b, -1)
		p.count(na, 1)
		p.count(nb, 1)
	}
}

// count adds w nodes in state s to the leader count and the gap.
func (p *Protocol) count(s uint32, w int) {
	if p.params.role(s) == core.Leader {
		p.leaders += w
	}
	p.gap += w * p.params.gapWeight(s)
}

// Output implements sim.Protocol.
func (p *Protocol) Output(v int) core.Role { return p.params.role(p.state[v]) }

// Leaders implements sim.Protocol.
func (p *Protocol) Leaders() int { return p.leaders }

// Stable implements sim.Protocol. The configuration is stable exactly when
// one node outputs leader:
//
//   - some node at the maximum level always outputs leader (the first to
//     attain a level below the cap by a streak completion is a leader and
//     only strictly larger levels demote; at the cap, every node is in the
//     backup, whose invariant #candidates = #black + #white with
//     #black ≥ 1 keeps a candidate alive);
//   - hence a unique leader sits at the maximum level and can never be
//     demoted, followers are never promoted, and — because the invariant
//     pins #white = 0 when #candidates = 1 — no white token can eliminate
//     a unique backup candidate.
//
// With at least one leader, the gap #leaders + #white − 1 is zero exactly
// when one node outputs leader and no white token is left; the white
// term is redundant but kept as a cheap cross-check of the invariant.
func (p *Protocol) Stable() bool { return p.gap == 0 }

// InBackup returns how many nodes run the backup protocol (experiments
// use it to report how often the fast path failed). It scans the nodes.
func (p *Protocol) InBackup() int {
	base, count := p.params.backupBase(), 0
	for _, s := range p.state {
		if s >= base {
			count++
		}
	}
	return count
}

// Level returns node v's level (tests).
func (p *Protocol) Level(v int) int { return p.params.level(p.state[v]) }

// Counts returns the backup token counters by a scan (tests).
func (p *Protocol) Counts() core.TokenCounts {
	var c core.TokenCounts
	base := p.params.backupBase()
	for _, s := range p.state {
		if s >= base {
			c.Add(core.TokenState(s-base), 1)
		}
	}
	return c
}
