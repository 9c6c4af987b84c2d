// Type-specialized chunk kernels. A compiled execution plan (plan.go)
// drives a run as a sequence of bounded chunks; the kernels here are the
// chunk runners. Each is monomorphized for one scheduler × graph shape —
// no interface dispatch on the sampling path — draws its randomness in
// fixed-size blocks through xrand.Fill, and keeps the sampling state
// (block buffer, cursor, hoisted Lemire rejection thresholds) alive
// across chunk calls, so chunking is free: the per-step cost is a buffer
// load, a 128-bit multiply and predictable branches regardless of where
// the plan places chunk boundaries.
//
// Determinism contract: a kernel consumes exactly the same uint64
// stream, in the same order, as the generic Source-driven reference
// kernel would for the same configuration and seed, and on finish
// rewinds the generator past only the draws it consumed (undoing block
// prefetch). Every seed therefore reproduces byte-identical Results,
// observer callbacks and post-run generator state regardless of which
// kernel ran — for every protocol × scheduler × drop × observer
// combination, not just uninstrumented uniform runs (the fused
// transition-table variants in engine_table.go consume no extra
// randomness); engine_test.go asserts all three against an independent
// step-at-a-time reference loop.

package sim

import (
	"math/bits"

	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// rngBlockSize is the number of uint64 values prefetched per refill, and
// also the plan's chunk-length bound. Big enough to amortize the Fill
// call and keep the generator state in registers for the whole block,
// small enough that the end-of-run rewind (at most one block re-skipped)
// stays negligible.
const rngBlockSize = 512

// kernel is a chunk runner: the compiled hot loop for one scheduler ×
// graph shape (optionally fused with a protocol's transition table),
// owning all mutable sampling state of one run.
type kernel interface {
	// run executes steps t0+1 .. t0+k, stopping early when the protocol
	// stabilizes; it returns the number of steps executed and whether the
	// final one stabilized. The plan guarantees k >= 1.
	run(p Protocol, r *xrand.Rand, t0, k int64) (done int64, stabilized bool)
	// finish rewinds any prefetched randomness so the generator is left
	// exactly where drawing one value at a time would have left it.
	finish(r *xrand.Rand)
	// sync reconciles the protocol's internal counters with any state
	// the kernel mutated behind Protocol.Step's back; the plan calls it
	// before every observer callback and at the end of the run. A no-op
	// for Step-dispatch kernels, whose protocols maintain their own
	// counters.
	sync()
	// stats returns the run's telemetry tallies: RNG block refills and
	// interactions suppressed by drop injection. The counters are plain
	// kernel-local ints bumped on paths that are already cold (the
	// out-of-line refill) or predictable (the drop branch, short-circuited
	// away entirely when drop == 0), so accounting never costs the hot
	// loop an atomic or a call; the plan reads them once per run.
	stats() (refills, drops int64)
}

// rngBlock is the shared block-prefetch state: a buffer of raw Uint64
// outputs, a cursor, and the generator snapshot needed to rewind unused
// prefetch on finish. Kernels keep one alive across chunk calls.
type rngBlock struct {
	buf     [rngBlockSize]uint64
	k       int
	saved   xrand.State
	filled  bool
	refills int64
}

// reset readies the block for a new run: empty, so the first next
// refills it. buf keeps its old contents — refill overwrites all of it
// before any value is read — so a recycled kernel (see runScratch)
// skips clearing 4 KiB per run.
func (b *rngBlock) reset() {
	b.k, b.saved, b.filled, b.refills = rngBlockSize, xrand.State{}, false, 0
}

// next returns the next stream value, refilling the block when
// exhausted. The hot path is a bounds-elided load and an increment; the
// refill lives in its own function so next stays inlinable.
//
//popcheck:kernel
func (b *rngBlock) next(r *xrand.Rand) uint64 {
	if b.k == rngBlockSize {
		b.refill(r)
	}
	x := b.buf[b.k]
	b.k++
	return x
}

// refill is the cold path of next; keeping it out of line keeps next
// itself within the inlining budget, which is what makes the per-draw
// cost of the kernels a buffer load instead of a function call.
//
//popcheck:kernel
//go:noinline
func (b *rngBlock) refill(r *xrand.Rand) {
	b.saved = r.Save()
	r.Fill(b.buf[:])
	b.k = 0
	b.filled = true
	b.refills++
}

// finish repositions r as if the consumed values had been drawn one at
// a time: restore the pre-block state, skip the consumed prefix.
func (b *rngBlock) finish(r *xrand.Rand) {
	if b.filled {
		r.Restore(b.saved)
		r.Skip(b.k)
		b.filled = false
		b.k = rngBlockSize
	}
}

// The Lemire reductions below mirror xrand.Uintn draw for draw. Uintn
// guards the threshold computation behind the rare lo < n test; since
// thresh = 2⁶⁴ mod n < n, looping directly on lo < thresh rejects
// exactly the same draws, and precomputing thresh hoists the 64-bit
// division out of the hot loop entirely. Bounds that vary per step
// (node-clock's per-degree draw) keep Uintn's guarded form instead.

// denseKernel is the uniform-scheduler loop for CSR graphs: one
// block-buffered Lemire reduction over the 2m ordered pairs per step,
// pair unpacking straight from the raw packed edge array, and the
// direction swap branch-free (a taken/not-taken branch on the draw's
// parity would mispredict half the time). Drop decisions, when enabled,
// convert the next block value in place — one extra stream position per
// step, exactly like the reference loop's live Float64 call.
type denseKernel struct {
	blk    rngBlock
	edges  []int64
	twoM   uint64
	thresh uint64
	drop   float64
	drops  int64
}

// init sets every field for a run of g; the kernel inits below follow
// the same rule, so recycled kernels carry nothing over but buffer
// contents refill overwrites.
func (kn *denseKernel) init(g *graph.Dense, drop float64) {
	twoM := uint64(2 * g.M())
	kn.blk.reset()
	kn.edges = g.PackedEdges()
	kn.twoM, kn.thresh = twoM, -twoM%twoM
	kn.drop, kn.drops = drop, 0
}

//popcheck:kernel
func (kn *denseKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	blk := &kn.blk
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(blk.next(r), kn.twoM)
		for lo < kn.thresh {
			hi, lo = bits.Mul64(blk.next(r), kn.twoM)
		}
		if kn.drop == 0 || xrand.Float64From(blk.next(r)) >= kn.drop {
			// Unpack edge hi>>1 as (initiator, responder), reversing the
			// pair when hi is odd via an XOR mask instead of a branch.
			e := uint64(kn.edges[hi>>1])
			eu, ew := e>>32, e&0xffffffff
			swap := (eu ^ ew) & -(hi & 1)
			p.Step(int(eu^swap), int(ew^swap))
		} else {
			kn.drops++
		}
		if p.Stable() {
			return i, true
		}
	}
	return k, false
}

func (kn *denseKernel) finish(r *xrand.Rand)  { kn.blk.finish(r) }
func (kn *denseKernel) sync()                 {}
func (kn *denseKernel) stats() (int64, int64) { return kn.blk.refills, kn.drops }

// cliqueKernel is the uniform-scheduler loop for the implicit complete
// graph, mirroring graph.Clique.SampleEdge's two-draw construction of a
// uniform ordered pair of distinct nodes.
type cliqueKernel struct {
	blk      rngBlock
	n, n1    uint64
	threshN  uint64
	threshN1 uint64
	drop     float64
	drops    int64
}

func (kn *cliqueKernel) init(g graph.Clique, drop float64) {
	n := uint64(g.N())
	n1 := n - 1
	kn.blk.reset()
	kn.n, kn.n1 = n, n1
	kn.threshN, kn.threshN1 = -n%n, -n1%n1
	kn.drop, kn.drops = drop, 0
}

//popcheck:kernel
func (kn *cliqueKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	blk := &kn.blk
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
			p.Step(u, v)
		} else {
			kn.drops++
		}
		if p.Stable() {
			return i, true
		}
	}
	return k, false
}

func (kn *cliqueKernel) finish(r *xrand.Rand)  { kn.blk.finish(r) }
func (kn *cliqueKernel) sync()                 {}
func (kn *cliqueKernel) stats() (int64, int64) { return kn.blk.refills, kn.drops }

// weightedKernel is the monomorphized alias-table loop for the Weighted
// scheduler: per step one Lemire reduction over the m columns (with the
// hoisted threshold), one prefetched float against the column's
// acceptance probability, one prefetched parity bit for the
// orientation coin — the exact draw sequence of xrand.Alias.Sample
// followed by Rand.Bool, replayed from the block buffer with no method
// calls on the sampling path.
type weightedKernel struct {
	blk    rngBlock
	pairs  []int64
	prob   []float64
	alias  []int32
	m      uint64
	thresh uint64
	drop   float64
	drops  int64
}

func (kn *weightedKernel) init(s *Weighted, drop float64) {
	prob, alias := s.alias.Table()
	m := uint64(len(prob))
	kn.blk.reset()
	kn.pairs, kn.prob, kn.alias = s.pairs, prob, alias
	kn.m, kn.thresh = m, -m%m
	kn.drop, kn.drops = drop, 0
}

//popcheck:kernel
func (kn *weightedKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	blk := &kn.blk
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
		u, w := int(e>>32), int(e&0xffffffff)
		if blk.next(r)&1 == 1 {
			u, w = w, u
		}
		if kn.drop == 0 || xrand.Float64From(blk.next(r)) >= kn.drop {
			p.Step(u, w)
		} else {
			kn.drops++
		}
		if p.Stable() {
			return i, true
		}
	}
	return k, false
}

func (kn *weightedKernel) finish(r *xrand.Rand)  { kn.blk.finish(r) }
func (kn *weightedKernel) sync()                 {}
func (kn *weightedKernel) stats() (int64, int64) { return kn.blk.refills, kn.drops }

// nodeClockKernel is the specialized loop for the NodeClock scheduler:
// the degree-proportional initiator comes from the alias table exactly
// as in weightedKernel, then the responder is a uniform neighbor. The
// neighbor draw's bound varies per step (the initiator's degree), so it
// keeps Uintn's guarded rejection form; on CSR graphs the adjacency
// slice is read directly instead of through two interface calls.
type nodeClockKernel struct {
	blk   rngBlock
	g     graph.Graph
	dense *graph.Dense // non-nil when g is CSR: neighbor reads skip the interface
	prob  []float64
	alias []int32
	n     uint64
	tn    uint64
	drop  float64
	drops int64
}

func (kn *nodeClockKernel) init(s *NodeClock, drop float64) {
	prob, alias := s.alias.Table()
	n := uint64(len(prob))
	kn.blk.reset()
	kn.g, kn.dense = s.g, nil
	if dg, ok := s.g.(*graph.Dense); ok {
		kn.dense = dg
	}
	kn.prob, kn.alias = prob, alias
	kn.n, kn.tn = n, -n%n
	kn.drop, kn.drops = drop, 0
}

//popcheck:kernel
func (kn *nodeClockKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	blk := &kn.blk
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
			p.Step(u, v)
		} else {
			kn.drops++
		}
		if p.Stable() {
			return i, true
		}
	}
	return k, false
}

func (kn *nodeClockKernel) finish(r *xrand.Rand)  { kn.blk.finish(r) }
func (kn *nodeClockKernel) sync()                 {}
func (kn *nodeClockKernel) stats() (int64, int64) { return kn.blk.refills, kn.drops }

// uintn is xrand.Uintn fed from the block buffer: same guarded Lemire
// rejection, same accepted draws, for bounds that vary per step.
//
//popcheck:kernel
func (b *rngBlock) uintn(r *xrand.Rand, n uint64) uint64 {
	hi, lo := bits.Mul64(b.next(r), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(b.next(r), n)
		}
	}
	return hi
}

// sourceKernel is the generic reference loop: any Source (a scheduler's
// per-run stream, a graph's SampleEdge via samplerSource, or a test's
// scripted sampler) driven one interface call per step with live
// generator draws. Every specialized kernel above is defined to be
// byte-identical to this one; it is also the only kernel for schedulers
// with per-run mutable state (churn) and for custom graph types.
type sourceKernel struct {
	src   Source
	drop  float64
	drops int64
}

func (kn *sourceKernel) run(p Protocol, r *xrand.Rand, t0, k int64) (int64, bool) {
	for i := int64(1); i <= k; i++ {
		u, v, ok := kn.src.Next(t0+i, r)
		if ok {
			// Same draw sequence as the historical short-circuit form: the
			// drop coin is flipped only for delivered pairs.
			if kn.drop == 0 || r.Float64() >= kn.drop {
				p.Step(u, v)
			} else {
				kn.drops++
			}
		}
		if p.Stable() {
			return i, true
		}
	}
	return k, false
}

func (kn *sourceKernel) finish(*xrand.Rand)    {}
func (kn *sourceKernel) sync()                 {}
func (kn *sourceKernel) stats() (int64, int64) { return 0, kn.drops }
