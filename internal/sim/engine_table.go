// Protocol-fused chunk kernels. The kernels in engine.go removed the
// interface dispatch from the *sampling* side of the hot loop; the ones
// here remove it from the *protocol* side as well. For a Tabular
// protocol the whole transition function is a compiled
// core.TransitionTable, so an interaction becomes two byte loads, one
// L1-resident table lookup, two byte stores and a counter-delta add —
// no Protocol.Step call, and Stable() collapses to comparing the
// incrementally maintained stability gap against zero. One fused kernel
// exists per specialized scheduler kernel (dense-uniform, clique-
// uniform, weighted, node-clock) × table; each embeds its engine.go
// sibling for the sampling state and mirrors its loop draw for draw.
//
// Determinism contract, extended to the protocol axis: fusing consumes
// no randomness — the table replays exactly the state updates Step
// would make — so a fused run produces byte-identical Results, observer
// sequences and post-run generator state as the same configuration with
// Options.NoTable (interface dispatch on the same scheduler kernel) and
// as the generic reference loop. The fused kernels run the protocol's
// own core.Machine: they mutate its state bytes in place and store the
// counters they keep in locals back on every return, so Output,
// Leaders and Stable are exact at every observer callback and after the
// run.

package sim

import (
	"math/bits"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// The fused inner step, written out in each kernel loop (a shared
// method would defeat the point). For initiator u and responder v:
//
//	idx := uint32(states[u])*k + uint32(states[v])
//	c := cells[idx]
//	states[u], states[v] = uint8(c>>8), uint8(c)
//	leaders += int(c>>16&0xff) - core.TableDeltaBias
//	gap += int(c>>24) - core.TableDeltaBias
//
// mirroring core.TransitionTable.Apply byte for byte. Each kernel hoists
// the machine's cells, states and counters into locals for a chunk and
// stores the counters back with SetCounters before it returns.

// denseTableKernel fuses the dense-uniform sampling loop of denseKernel
// with a transition table.
// It embeds denseKernel for the sampling state, finish and stats.
type denseTableKernel struct {
	denseKernel
	mach *core.Machine
}

func (kn *denseTableKernel) init(g *graph.Dense, drop float64, mach *core.Machine) {
	kn.denseKernel.init(g, drop)
	kn.mach = mach
}

//popcheck:kernel
func (kn *denseTableKernel) run(_ Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	blk := &kn.blk
	mach := kn.mach
	tab := mach.Table()
	states, cells, kk := mach.States(), tab.Cells(), uint32(tab.K())
	leaders, gap := mach.Counters()
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(blk.next(r), kn.twoM)
		for lo < kn.thresh {
			hi, lo = bits.Mul64(blk.next(r), kn.twoM)
		}
		if kn.drop == 0 || xrand.Float64From(blk.next(r)) >= kn.drop {
			e := uint64(kn.edges[hi>>1])
			eu, ew := e>>32, e&0xffffffff
			swap := (eu ^ ew) & -(hi & 1)
			u, v := int(eu^swap), int(ew^swap)
			c := cells[uint32(states[u])*kk+uint32(states[v])]
			states[u], states[v] = uint8(c>>8), uint8(c)
			leaders += int(c>>16&0xff) - core.TableDeltaBias
			gap += int(c>>24) - core.TableDeltaBias
		} else {
			kn.drops++
		}
		if gap == 0 {
			mach.SetCounters(leaders, gap)
			return i, true
		}
	}
	mach.SetCounters(leaders, gap)
	return k, false
}

// cliqueTableKernel fuses cliqueKernel's two-draw pair construction
// with a transition table.
// It embeds cliqueKernel for the sampling state, finish and stats.
type cliqueTableKernel struct {
	cliqueKernel
	mach *core.Machine
}

func (kn *cliqueTableKernel) init(g graph.Clique, drop float64, mach *core.Machine) {
	kn.cliqueKernel.init(g, drop)
	kn.mach = mach
}

//popcheck:kernel
func (kn *cliqueTableKernel) run(_ Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	blk := &kn.blk
	mach := kn.mach
	tab := mach.Table()
	states, cells, kk := mach.States(), tab.Cells(), uint32(tab.K())
	leaders, gap := mach.Counters()
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(blk.next(r), kn.n)
		for lo < kn.threshN {
			hi, lo = bits.Mul64(blk.next(r), kn.n)
		}
		u := int(hi)
		hi, lo = bits.Mul64(blk.next(r), kn.n1)
		for lo < kn.threshN1 {
			hi, lo = bits.Mul64(blk.next(r), kn.n1)
		}
		v := int(hi)
		if v >= u {
			v++
		}
		if kn.drop == 0 || xrand.Float64From(blk.next(r)) >= kn.drop {
			c := cells[uint32(states[u])*kk+uint32(states[v])]
			states[u], states[v] = uint8(c>>8), uint8(c)
			leaders += int(c>>16&0xff) - core.TableDeltaBias
			gap += int(c>>24) - core.TableDeltaBias
		} else {
			kn.drops++
		}
		if gap == 0 {
			mach.SetCounters(leaders, gap)
			return i, true
		}
	}
	mach.SetCounters(leaders, gap)
	return k, false
}

// weightedTableKernel fuses weightedKernel's alias-table edge draw with
// a transition table.
// It embeds weightedKernel for the sampling state, finish and stats.
type weightedTableKernel struct {
	weightedKernel
	mach *core.Machine
}

func (kn *weightedTableKernel) init(s *Weighted, drop float64, mach *core.Machine) {
	kn.weightedKernel.init(s, drop)
	kn.mach = mach
}

//popcheck:kernel
func (kn *weightedTableKernel) run(_ Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	blk := &kn.blk
	mach := kn.mach
	tab := mach.Table()
	states, cells, kk := mach.States(), tab.Cells(), uint32(tab.K())
	leaders, gap := mach.Counters()
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(blk.next(r), kn.m)
		for lo < kn.thresh {
			hi, lo = bits.Mul64(blk.next(r), kn.m)
		}
		col := int(hi)
		if xrand.Float64From(blk.next(r)) >= kn.prob[col] {
			col = int(kn.alias[col])
		}
		e := kn.pairs[col]
		u, v := int(e>>32), int(e&0xffffffff)
		if blk.next(r)&1 == 1 {
			u, v = v, u
		}
		if kn.drop == 0 || xrand.Float64From(blk.next(r)) >= kn.drop {
			c := cells[uint32(states[u])*kk+uint32(states[v])]
			states[u], states[v] = uint8(c>>8), uint8(c)
			leaders += int(c>>16&0xff) - core.TableDeltaBias
			gap += int(c>>24) - core.TableDeltaBias
		} else {
			kn.drops++
		}
		if gap == 0 {
			mach.SetCounters(leaders, gap)
			return i, true
		}
	}
	mach.SetCounters(leaders, gap)
	return k, false
}

// nodeClockTableKernel fuses nodeClockKernel's degree-proportional
// initiator draw with a transition table.
// It embeds nodeClockKernel for the sampling state, finish and stats.
type nodeClockTableKernel struct {
	nodeClockKernel
	mach *core.Machine
}

func (kn *nodeClockTableKernel) init(s *NodeClock, drop float64, mach *core.Machine) {
	kn.nodeClockKernel.init(s, drop)
	kn.mach = mach
}

//popcheck:kernel
func (kn *nodeClockTableKernel) run(_ Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	blk := &kn.blk
	mach := kn.mach
	tab := mach.Table()
	states, cells, kk := mach.States(), tab.Cells(), uint32(tab.K())
	leaders, gap := mach.Counters()
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(blk.next(r), kn.n)
		for lo < kn.tn {
			hi, lo = bits.Mul64(blk.next(r), kn.n)
		}
		col := int(hi)
		if xrand.Float64From(blk.next(r)) >= kn.prob[col] {
			col = int(kn.alias[col])
		}
		u := col
		var v int
		if kn.dense != nil {
			nb := kn.dense.Neighbors(u)
			v = int(nb[blk.uintn(r, uint64(len(nb)))])
		} else {
			v = kn.g.NeighborAt(u, int(blk.uintn(r, uint64(kn.g.Degree(u))))) //popcheck:ignore hotpath non-CSR fallback; dense path above covers built-in graphs
		}
		if kn.drop == 0 || xrand.Float64From(blk.next(r)) >= kn.drop {
			c := cells[uint32(states[u])*kk+uint32(states[v])]
			states[u], states[v] = uint8(c>>8), uint8(c)
			leaders += int(c>>16&0xff) - core.TableDeltaBias
			gap += int(c>>24) - core.TableDeltaBias
		} else {
			kn.drops++
		}
		if gap == 0 {
			mach.SetCounters(leaders, gap)
			return i, true
		}
	}
	mach.SetCounters(leaders, gap)
	return k, false
}
