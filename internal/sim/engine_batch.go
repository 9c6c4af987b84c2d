// Batched lockstep chunk kernels. The fused kernels in engine_table.go
// execute one trial at a time, and BENCH_sim.json shows them
// latency-bound: every step is a serial chain (block load → Lemire
// multiply → table lookup → dependent byte stores), so the core idles
// on dependencies. The kernels here run T replicate trials of the same
// plan in lockstep — per global step, one step of every still-active
// trial — so the chains of independent trials overlap in the pipeline.
//
// Layout is structure-of-arrays, trial-major: one contiguous [T·n]uint8
// state allocation (lane l owns soa[l·n : (l+1)·n]), one L1-resident
// transition table shared by every lane (batch setup verifies the lanes'
// tables are content-identical), and per-trial counter lanes (leaders,
// stability gap, drop tally). Stabilized lanes leave the active roster
// immediately — the early-exit active list — so they stop consuming RNG
// and step work without perturbing the survivors.
//
// Determinism contract, extended to the batch axis: each lane draws from
// its OWN generator and rngBlock, so lane l consumes exactly the uint64
// stream the solo run with the same seed would — same values, same
// refill points, same rewind on finish. The table is the only state
// shared across lanes; sampling never is. Batch trial l is therefore
// byte-identical (Result, observer sequence, telemetry step totals) to
// the solo trial with the same seed, which engine_test.go asserts along
// the matrix's batch axis.

package sim

import (
	"math/bits"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// tableBatch is the lockstep state shared by every batched fused
// kernel: the SoA state block, the shared transition cells, per-lane
// generators/blocks/counters, and the active/retired rosters. Lane
// indices are positions in the RunBatch argument slices; crashed lanes
// simply never enter the active roster and their slots stay zero.
type tableBatch struct {
	n     int
	kk    uint32
	cells []uint32
	soa   []uint8
	tabs  []Tabular
	rs    []*xrand.Rand
	blks  []rngBlock
	// leaders and gaps are the per-lane incrementally maintained
	// counters mirrored from tableMachine; a lane is stable iff its gap
	// is 0.
	leaders []int
	gaps    []int
	drops   []int64
	// stopAt records the global step at which a lane stabilized.
	stopAt []int64
	// active lists live lanes in ascending order; retired collects the
	// lanes that stabilized during the current window, in stabilization
	// order, for the driver to drain. Both live in preallocated backing
	// arrays so roster surgery never allocates on the hot path.
	active  []int32
	retired []int32
	drop    float64
}

// newTableBatch builds the lockstep core over the given lanes, which
// must already be Reset and verified Tabular with content-identical
// tables (newBatchKernel does both).
func newTableBatch(pl *ExecPlan, tabs []Tabular, rs []*xrand.Rand, lanes []int32) *tableBatch {
	n := pl.g.N()
	T := len(rs)
	ref := tabs[lanes[0]].Table()
	b := &tableBatch{
		n:       n,
		kk:      uint32(ref.K()),
		cells:   ref.Cells(),
		soa:     make([]uint8, T*n),
		tabs:    tabs,
		rs:      rs,
		blks:    make([]rngBlock, T),
		leaders: make([]int, T),
		gaps:    make([]int, T),
		drops:   make([]int64, T),
		stopAt:  make([]int64, T),
		active:  make([]int32, len(lanes), T),
		retired: make([]int32, 0, T),
		drop:    pl.drop,
	}
	copy(b.active, lanes)
	for _, l := range lanes {
		b.blks[l].reset()
		st := tabs[l].TableStates()
		copy(b.soa[int(l)*n:(int(l)+1)*n], st)
		b.leaders[l], b.gaps[l] = tabs[l].Table().Counters(st)
	}
	return b
}

// retire removes active[a] from the roster and records its
// stabilization step; the driver drains the retired list after the
// window. Removal is an ordered copy-down, not append, so the roster
// stays ascending and the operation allocation-free.
//
//popcheck:kernel
func (b *tableBatch) retire(a int, step int64) {
	lane := b.active[a]
	b.stopAt[lane] = step
	b.retired = b.retired[:len(b.retired)+1]
	b.retired[len(b.retired)-1] = lane
	copy(b.active[a:], b.active[a+1:])
	b.active = b.active[:len(b.active)-1]
}

// syncLane copies a lane's SoA column back into the protocol's own
// state array (Tabular.TableStates aliases it) and reconciles its
// counters — the batch analogue of kernel.sync, invoked by the driver
// before observer callbacks and at retirement. Unlike the solo fused
// kernels, which mutate the protocol array in place, batch lanes run on
// the SoA copy, so protocol accessors are accurate only at sync points.
func (b *tableBatch) syncLane(lane int32) {
	copy(b.tabs[lane].TableStates(), b.soa[int(lane)*b.n:int(lane+1)*b.n])
	b.tabs[lane].ReloadCounters(b.leaders[lane], b.gaps[lane])
}

// finishLane rewinds a lane's prefetched randomness, leaving its
// generator exactly where the solo run's finish would.
func (b *tableBatch) finishLane(lane int32) { b.blks[lane].finish(b.rs[lane]) }

// takeRetired returns the lanes that stabilized during the last window
// and resets the list for the next one.
func (b *tableBatch) takeRetired() []int32 {
	r := b.retired
	b.retired = b.retired[:0]
	return r
}

// batchKernel is a lockstep chunk runner: run executes global steps
// t0+1 .. t0+k, one step per still-active lane per global step,
// retiring lanes the moment they stabilize.
type batchKernel interface {
	run(t0, k int64)
	core() *tableBatch
}

// denseBatchKernel is the lockstep variant of denseTableKernel: one
// Lemire reduction over the 2m ordered pairs per lane-step, branch-free
// pair unpack, shared table.
type denseBatchKernel struct {
	tableBatch
	edges  []int64
	twoM   uint64
	thresh uint64
}

func newDenseBatchKernel(g *graph.Dense, b *tableBatch) *denseBatchKernel {
	twoM := uint64(2 * g.M())
	return &denseBatchKernel{
		tableBatch: *b,
		edges:      g.PackedEdges(),
		twoM:       twoM,
		thresh:     -twoM % twoM,
	}
}

func (kn *denseBatchKernel) core() *tableBatch { return &kn.tableBatch }

// run walks the roster lane-major: each live lane executes the whole
// window in the tight solo loop shape (runLane), with every hot value
// hoisted into locals for the window. Lanes are independent between
// sync points, so lane-major scheduling is draw-for-draw identical to
// per-step interleaving — and measurably faster: the interleaved form
// reloads per-lane state every lane-step and spills what the solo
// kernels keep in registers.
//
//popcheck:kernel
func (kn *denseBatchKernel) run(t0, k int64) {
	for a := 0; a < len(kn.active); {
		a = kn.runLane(a, t0, k)
	}
}

// runLane executes one window for the lane at roster position a in the
// scalar solo shape, retiring it on stabilization. Returns the position
// the roster walk continues from.
//
//popcheck:kernel
func (kn *denseBatchKernel) runLane(a int, t0, k int64) int {
	cells, kk, n := kn.cells, kn.kk, kn.n
	edges, twoM, thresh, drop := kn.edges, kn.twoM, kn.thresh, kn.drop
	lane := int(kn.active[a])
	blk := &kn.blks[lane]
	r := kn.rs[lane]
	states := kn.soa[lane*n : lane*n+n]
	leaders, gap := kn.leaders[lane], kn.gaps[lane]
	drops := kn.drops[lane]
	stopped := int64(0)
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(blk.next(r), twoM)
		for lo < thresh {
			hi, lo = bits.Mul64(blk.next(r), twoM)
		}
		if drop == 0 || xrand.Float64From(blk.next(r)) >= drop {
			e := uint64(edges[hi>>1])
			eu, ew := e>>32, e&0xffffffff
			swap := (eu ^ ew) & -(hi & 1)
			u, v := int(eu^swap), int(ew^swap)
			c := cells[uint32(states[u])*kk+uint32(states[v])]
			states[u], states[v] = uint8(c>>8), uint8(c)
			leaders += int(c>>16&0xff) - core.TableDeltaBias
			gap += int(c>>24) - core.TableDeltaBias
		} else {
			drops++
		}
		if gap == 0 {
			stopped = t0 + i
			break
		}
	}
	kn.leaders[lane], kn.gaps[lane], kn.drops[lane] = leaders, gap, drops
	if stopped != 0 {
		kn.retire(a, stopped)
		return a
	}
	return a + 1
}

// cliqueBatchKernel is the lockstep variant of cliqueTableKernel: two
// Lemire draws per lane-step, shared table.
type cliqueBatchKernel struct {
	tableBatch
	nn       uint64
	n1       uint64
	threshN  uint64
	threshN1 uint64
}

func newCliqueBatchKernel(g graph.Clique, b *tableBatch) *cliqueBatchKernel {
	nn := uint64(g.N())
	n1 := nn - 1
	return &cliqueBatchKernel{
		tableBatch: *b,
		nn:         nn,
		n1:         n1,
		threshN:    -nn % nn,
		threshN1:   -n1 % n1,
	}
}

func (kn *cliqueBatchKernel) core() *tableBatch { return &kn.tableBatch }

// run walks the roster lane-major; see denseBatchKernel.run for why
// this beats per-step interleaving.
//
//popcheck:kernel
func (kn *cliqueBatchKernel) run(t0, k int64) {
	for a := 0; a < len(kn.active); {
		a = kn.runLane(a, t0, k)
	}
}

//popcheck:kernel
func (kn *cliqueBatchKernel) runLane(a int, t0, k int64) int {
	cells, kk, n := kn.cells, kn.kk, kn.n
	nn, n1, threshN, threshN1, drop := kn.nn, kn.n1, kn.threshN, kn.threshN1, kn.drop
	lane := int(kn.active[a])
	blk := &kn.blks[lane]
	r := kn.rs[lane]
	states := kn.soa[lane*n : lane*n+n]
	leaders, gap := kn.leaders[lane], kn.gaps[lane]
	drops := kn.drops[lane]
	stopped := int64(0)
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(blk.next(r), nn)
		for lo < threshN {
			hi, lo = bits.Mul64(blk.next(r), nn)
		}
		u := int(hi)
		hi, lo = bits.Mul64(blk.next(r), n1)
		for lo < threshN1 {
			hi, lo = bits.Mul64(blk.next(r), n1)
		}
		v := int(hi)
		if v >= u {
			v++
		}
		if drop == 0 || xrand.Float64From(blk.next(r)) >= drop {
			c := cells[uint32(states[u])*kk+uint32(states[v])]
			states[u], states[v] = uint8(c>>8), uint8(c)
			leaders += int(c>>16&0xff) - core.TableDeltaBias
			gap += int(c>>24) - core.TableDeltaBias
		} else {
			drops++
		}
		if gap == 0 {
			stopped = t0 + i
			break
		}
	}
	kn.leaders[lane], kn.gaps[lane], kn.drops[lane] = leaders, gap, drops
	if stopped != 0 {
		kn.retire(a, stopped)
		return a
	}
	return a + 1
}

// weightedBatchKernel is the lockstep variant of weightedTableKernel:
// alias-table edge draw, direction flip, shared table.
type weightedBatchKernel struct {
	tableBatch
	pairs  []int64
	prob   []float64
	alias  []int32
	m      uint64
	thresh uint64
}

func newWeightedBatchKernel(s *Weighted, b *tableBatch) *weightedBatchKernel {
	prob, alias := s.alias.Table()
	m := uint64(len(prob))
	return &weightedBatchKernel{
		tableBatch: *b,
		pairs:      s.pairs,
		prob:       prob,
		alias:      alias,
		m:          m,
		thresh:     -m % m,
	}
}

func (kn *weightedBatchKernel) core() *tableBatch { return &kn.tableBatch }

// run walks the roster lane-major; see denseBatchKernel.run for why
// this beats per-step interleaving.
//
//popcheck:kernel
func (kn *weightedBatchKernel) run(t0, k int64) {
	for a := 0; a < len(kn.active); {
		a = kn.runLane(a, t0, k)
	}
}

//popcheck:kernel
func (kn *weightedBatchKernel) runLane(a int, t0, k int64) int {
	cells, kk, n := kn.cells, kn.kk, kn.n
	pairs, prob, alias, m, thresh, drop := kn.pairs, kn.prob, kn.alias, kn.m, kn.thresh, kn.drop
	lane := int(kn.active[a])
	blk := &kn.blks[lane]
	r := kn.rs[lane]
	states := kn.soa[lane*n : lane*n+n]
	leaders, gap := kn.leaders[lane], kn.gaps[lane]
	drops := kn.drops[lane]
	stopped := int64(0)
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(blk.next(r), m)
		for lo < thresh {
			hi, lo = bits.Mul64(blk.next(r), m)
		}
		col := int(hi)
		if xrand.Float64From(blk.next(r)) >= prob[col] {
			col = int(alias[col])
		}
		e := pairs[col]
		u, v := int(e>>32), int(e&0xffffffff)
		if blk.next(r)&1 == 1 {
			u, v = v, u
		}
		if drop == 0 || xrand.Float64From(blk.next(r)) >= drop {
			c := cells[uint32(states[u])*kk+uint32(states[v])]
			states[u], states[v] = uint8(c>>8), uint8(c)
			leaders += int(c>>16&0xff) - core.TableDeltaBias
			gap += int(c>>24) - core.TableDeltaBias
		} else {
			drops++
		}
		if gap == 0 {
			stopped = t0 + i
			break
		}
	}
	kn.leaders[lane], kn.gaps[lane], kn.drops[lane] = leaders, gap, drops
	if stopped != 0 {
		kn.retire(a, stopped)
		return a
	}
	return a + 1
}
