// Package graph provides the interaction-graph substrate for the population
// protocol simulator: a compact adjacency representation, generators for the
// graph families studied in the paper (cliques, cycles, stars, tori, random
// graphs, renitent constructions, ...), and structural properties (BFS
// distances, diameter, degrees, boundaries).
//
// Graphs are connected, simple and undirected, with nodes 0..n-1. The
// scheduler of the population model samples an ordered pair of adjacent
// nodes uniformly among all 2m such pairs; SampleEdge implements exactly
// that distribution.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"popgraph/internal/xrand"
)

// Graph is the read-only interface the simulator, the measurement code and
// the protocols use. Implementations must describe a connected simple
// undirected graph with nodes 0..N()-1.
type Graph interface {
	// N returns the number of nodes.
	N() int
	// M returns the number of (undirected) edges.
	M() int
	// Degree returns the number of edges incident to v.
	Degree(v int) int
	// NeighborAt returns the i-th neighbour of v, for 0 <= i < Degree(v).
	// The ordering is arbitrary but fixed.
	NeighborAt(v, i int) int
	// ForEachEdge calls fn once per undirected edge {u, w}, with u < w.
	ForEachEdge(fn func(u, w int))
	// SampleEdge returns an ordered pair (u, w) of adjacent nodes sampled
	// uniformly among all 2·M() ordered pairs; u is the initiator.
	SampleEdge(r *xrand.Rand) (u, w int)
	// Name returns a short human-readable description, e.g. "cycle-1024".
	Name() string
}

// DiameterKnower is an optional interface for graphs whose diameter is
// known analytically; Diameter consults it before running BFS.
type DiameterKnower interface {
	KnownDiameter() int
}

// Dense is the concrete adjacency-list (CSR) implementation of Graph used
// for every family except cliques (which have an implicit representation).
type Dense struct {
	n       int
	offsets []int32 // len n+1
	adj     []int32 // len 2m, neighbours of v at offsets[v]:offsets[v+1]
	edges   []int64 // len m, packed u<<32|w with u < w, for edge sampling
	name    string
	diam    int // known diameter, -1 if unknown
	aux     any // loader-attached artifacts; see SetAux
}

var _ Graph = (*Dense)(nil)
var _ DiameterKnower = (*Dense)(nil)

// Edge is an undirected edge {U, W}; constructors normalize U < W.
type Edge struct {
	U, W int32
}

// errors returned by constructors.
var (
	ErrDisconnected = errors.New("graph: not connected")
	ErrInvalidEdge  = errors.New("graph: invalid edge")
)

// checkSize returns an error when a graph of n nodes and m edges does not
// fit a Dense graph, whose int32 CSR arrays hold n node ids and 2m
// adjacency entries. Generators call it before allocating anything sized
// by n or m; float64 arguments keep products of huge parameters from
// wrapping.
func checkSize(name string, n, m float64) error {
	if n > math.MaxInt32 || 2*m > math.MaxInt32 {
		return fmt.Errorf("graph %s: %.0f nodes and %.0f edges exceed the int32 adjacency (at most %d nodes and %d edges): %w",
			name, n, m, math.MaxInt32, math.MaxInt32/2, ErrInvalidEdge)
	}
	return nil
}

// mustFit is checkSize for the generators that panic on bad parameters.
func mustFit(name string, n, m float64) {
	if err := checkSize(name, n, m); err != nil {
		panic(err.Error())
	}
}

// NewDense builds a Dense graph on n nodes from the given undirected edge
// list. It rejects self-loops, out-of-range endpoints, duplicate edges and
// disconnected graphs.
func NewDense(n int, edges []Edge, name string) (*Dense, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph %q: n must be positive, got %d: %w", name, n, ErrInvalidEdge)
	}
	if err := checkSize(name, float64(n), float64(len(edges))); err != nil {
		return nil, err
	}
	norm := make([]int64, 0, len(edges))
	for _, e := range edges {
		u, w := e.U, e.W
		if u == w {
			return nil, fmt.Errorf("graph %q: self-loop at %d: %w", name, u, ErrInvalidEdge)
		}
		if u < 0 || w < 0 || int(u) >= n || int(w) >= n {
			return nil, fmt.Errorf("graph %q: edge (%d,%d) out of range [0,%d): %w", name, u, w, n, ErrInvalidEdge)
		}
		if u > w {
			u, w = w, u
		}
		norm = append(norm, int64(u)<<32|int64(w))
	}
	sort.Slice(norm, func(i, j int) bool { return norm[i] < norm[j] })
	for i := 1; i < len(norm); i++ {
		if norm[i] == norm[i-1] {
			return nil, fmt.Errorf("graph %q: duplicate edge (%d,%d): %w",
				name, norm[i]>>32, norm[i]&0xffffffff, ErrInvalidEdge)
		}
	}
	g := newDenseUnchecked(n, norm, name)
	if !connected(g) {
		return nil, fmt.Errorf("graph %q (n=%d, m=%d): %w", name, n, len(norm), ErrDisconnected)
	}
	return g, nil
}

// NewDenseFromCSR rebuilds a Dense graph directly from its three CSR
// arrays — the exact slices CSR and PackedEdges expose — so a decoded
// binary snapshot becomes a first-class *Dense (and keeps the
// type-specialized kernels engaged) without re-deriving anything. The
// slices are adopted, not copied; callers transfer ownership and must
// not mutate them afterwards.
//
// Validation runs in two tiers. The shape tier is O(n): offsets must
// start at 0, be nondecreasing and end at 2m, lengths must agree with
// n and m, and diam must lie in [-1, n). The content tier, VerifyCSR,
// is O(m): every adjacency entry must be a valid node, the packed edge
// list must be strictly ascending (which implies u < w, no duplicates)
// with in-range endpoints, and adj must be exactly the adjacency
// newDenseUnchecked would derive from that edge list (checked by
// replaying the cursor fill), so the triple is internally consistent,
// not merely plausible. NewDenseFromCSR runs both tiers. Connectivity
// is NOT re-verified — callers vouch for it (a snapshot records the
// encoder's BFS result under its checksum); diam is the known diameter
// or -1.
func NewDenseFromCSR(n int, offsets, adj []int32, packed []int64, name string, diam int) (*Dense, error) {
	g, err := NewDenseFromCSRTrusted(n, offsets, adj, packed, name, diam)
	if err != nil {
		return nil, err
	}
	if err := g.VerifyCSR(); err != nil {
		return nil, err
	}
	return g, nil
}

// NewDenseFromCSRTrusted is NewDenseFromCSR minus the O(m) content
// tier: it runs only the O(n) shape checks and adopts the arrays as
// given. It exists for callers whose data integrity is already
// established — a checksummed snapshot carries the same bytes its
// encoder verified with VerifyCSR, so revalidating every element on
// load would spend more time than the load itself (on a
// memory-bandwidth-bound machine each O(m) scan costs as much as the
// checksum pass). The trade is explicit: a crafted file with valid
// checksums but inconsistent content is caught by VerifyCSR, not here;
// until then, out-of-range adjacency surfaces as an index-range panic
// in the kernels, never as memory corruption.
func NewDenseFromCSRTrusted(n int, offsets, adj []int32, packed []int64, name string, diam int) (*Dense, error) {
	if n <= 0 || n > 1<<31-1 {
		return nil, fmt.Errorf("graph %q: CSR node count %d out of range: %w", name, n, ErrInvalidEdge)
	}
	m := len(packed)
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph %q: CSR offsets length %d, want n+1 = %d: %w", name, len(offsets), n+1, ErrInvalidEdge)
	}
	if len(adj) != 2*m {
		return nil, fmt.Errorf("graph %q: CSR adjacency length %d, want 2m = %d: %w", name, len(adj), 2*m, ErrInvalidEdge)
	}
	if offsets[0] != 0 || int(offsets[n]) != 2*m {
		return nil, fmt.Errorf("graph %q: CSR offsets span [%d, %d], want [0, %d]: %w", name, offsets[0], offsets[n], 2*m, ErrInvalidEdge)
	}
	if !csrOffsetsMonotone(offsets) {
		return nil, fmt.Errorf("graph %q: CSR offsets not nondecreasing: %w", name, ErrInvalidEdge)
	}
	if diam < -1 || diam >= n {
		return nil, fmt.Errorf("graph %q: known diameter %d out of range [-1, %d): %w", name, diam, n, ErrInvalidEdge)
	}
	return &Dense{n: n, offsets: offsets, adj: adj, edges: packed, name: name, diam: diam}, nil
}

// VerifyCSR runs the O(m) content tier of the CSR validation (see
// NewDenseFromCSR): adjacency entries in range, packed edges strictly
// ascending with valid endpoints, and the adjacency array exactly the
// cursor fill of the edge list. It is the deep check
// NewDenseFromCSRTrusted defers; snapshot encoders run it once after
// writing so loaders don't have to on every start.
func (g *Dense) VerifyCSR() error {
	n, name, offsets, adj, packed := g.n, g.name, g.offsets, g.adj, g.edges
	if i := csrAdjOutOfRange(adj, int32(n)); i >= 0 {
		return fmt.Errorf("graph %q: CSR adjacency entry %d is %d, outside [0,%d): %w", name, i, adj[i], n, ErrInvalidEdge)
	}
	if i := csrEdgesUnsorted(packed, n); i >= 0 {
		return fmt.Errorf("graph %q: packed edge %d (%d,%d) out of order or out of range: %w",
			name, i, packed[i]>>32, packed[i]&0xffffffff, ErrInvalidEdge)
	}
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	if i := csrAdjMatchesEdges(offsets, adj, cursor, packed); i >= 0 {
		return fmt.Errorf("graph %q: CSR adjacency disagrees with packed edge %d (%d,%d): %w",
			name, i, packed[i]>>32, packed[i]&0xffffffff, ErrInvalidEdge)
	}
	for v := 0; v < n; v++ {
		if cursor[v] != offsets[v+1] {
			return fmt.Errorf("graph %q: CSR degree of node %d is %d, edge list implies %d: %w",
				name, v, offsets[v+1]-offsets[v], cursor[v]-offsets[v], ErrInvalidEdge)
		}
	}
	return nil
}

// csrOffsetsMonotone reports whether offsets is nondecreasing.
//
//popcheck:kernel
func csrOffsetsMonotone(offsets []int32) bool {
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return false
		}
	}
	return true
}

// csrAdjOutOfRange returns the index of the first adjacency entry
// outside [0, n), or -1.
//
//popcheck:kernel
func csrAdjOutOfRange(adj []int32, n int32) int {
	for i, v := range adj {
		if v < 0 || v >= n {
			return i
		}
	}
	return -1
}

// csrEdgesUnsorted returns the index of the first packed edge that is
// not strictly greater than its predecessor or whose endpoints are not
// 0 <= u < w < n, or -1. Strict ascent of the packed encoding implies
// sortedness and no duplicates in one comparison per edge.
//
//popcheck:kernel
func csrEdgesUnsorted(packed []int64, n int) int {
	prev := int64(-1)
	for i, e := range packed {
		u, w := e>>32, e&0xffffffff
		if e <= prev || u < 0 || u >= w || w >= int64(n) {
			return i
		}
		prev = e
	}
	return -1
}

// csrAdjMatchesEdges replays the cursor fill newDenseUnchecked uses to
// derive adjacency from the sorted packed edge list, comparing against
// adj entry by entry; it returns the index of the first disagreeing
// edge, or -1. cursor must be a copy of offsets[:n]; on success every
// cursor lands on its node's end offset, which the caller checks to
// close the degree accounting.
//
//popcheck:kernel
func csrAdjMatchesEdges(offsets, adj, cursor []int32, packed []int64) int {
	for i, e := range packed {
		u, w := int32(e>>32), int32(e&0xffffffff)
		cu, cw := cursor[u], cursor[w]
		if cu >= offsets[u+1] || adj[cu] != w || cw >= offsets[w+1] || adj[cw] != u {
			return i
		}
		cursor[u] = cu + 1
		cursor[w] = cw + 1
	}
	return -1
}

// CSR exposes the graph's offset and adjacency arrays — together with
// PackedEdges, the complete serializable representation NewDenseFromCSR
// rebuilds from. Callers must treat both as read-only.
func (g *Dense) CSR() (offsets, adj []int32) { return g.offsets, g.adj }

// SetAux attaches an auxiliary artifact to the graph — the seam loaders
// use to carry prebuilt companion data (a decoded snapshot with alias
// tables and compiled transition tables) alongside the graph without
// the graph package knowing the concrete type. One value; a second call
// replaces the first.
func (g *Dense) SetAux(v any) { g.aux = v }

// Aux returns the artifact attached by SetAux, or nil.
func (g *Dense) Aux() any { return g.aux }

// newDenseUnchecked builds the CSR structures from a deduplicated,
// normalized (u < w) packed edge list. Callers guarantee validity.
func newDenseUnchecked(n int, packed []int64, name string) *Dense {
	g := &Dense{
		n:       n,
		offsets: make([]int32, n+1),
		adj:     make([]int32, 2*len(packed)),
		edges:   packed,
		name:    name,
		diam:    -1,
	}
	deg := make([]int32, n)
	for _, e := range packed {
		deg[e>>32]++
		deg[e&0xffffffff]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for _, e := range packed {
		u, w := int32(e>>32), int32(e&0xffffffff)
		g.adj[cursor[u]] = w
		cursor[u]++
		g.adj[cursor[w]] = u
		cursor[w]++
	}
	return g
}

// N returns the number of nodes.
func (g *Dense) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Dense) M() int { return len(g.edges) }

// Degree returns the degree of v.
func (g *Dense) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// NeighborAt returns the i-th neighbour of v.
func (g *Dense) NeighborAt(v, i int) int { return int(g.adj[int(g.offsets[v])+i]) }

// Neighbors returns a read-only view of v's neighbours.
func (g *Dense) Neighbors(v int) []int32 { return g.adj[g.offsets[v]:g.offsets[v+1]] }

// ForEachEdge calls fn once per undirected edge with u < w.
func (g *Dense) ForEachEdge(fn func(u, w int)) {
	for _, e := range g.edges {
		fn(int(e>>32), int(e&0xffffffff))
	}
}

// SampleEdge returns a uniform ordered pair of adjacent nodes.
func (g *Dense) SampleEdge(r *xrand.Rand) (int, int) {
	return g.OrderedPair(r.Uintn(uint64(2 * len(g.edges))))
}

// OrderedPair maps t, uniform in [0, 2·M()), to the ordered adjacent pair
// SampleEdge would return for that draw: undirected edge t>>1, reversed
// when t is odd. The simulator's specialized hot loop reduces its own
// randomness and calls this directly, bypassing the EdgeSampler interface.
func (g *Dense) OrderedPair(t uint64) (int, int) {
	e := g.edges[t>>1]
	u, w := int(e>>32), int(e&0xffffffff)
	if t&1 == 1 {
		return w, u
	}
	return u, w
}

// PackedEdges returns the graph's edge list as packed uint64 values
// u<<32|w with u < w, sorted ascending — the raw array OrderedPair
// indexes. Callers must treat it as read-only; the simulator hot loop
// uses it to unpack pairs branch-free without a method call per step.
func (g *Dense) PackedEdges() []int64 { return g.edges }

// Name returns the graph's description.
func (g *Dense) Name() string { return g.name }

// KnownDiameter returns the analytically known diameter, or -1.
func (g *Dense) KnownDiameter() int { return g.diam }

// setDiam is used by generators whose diameter is known in closed form.
func (g *Dense) setDiam(d int) *Dense { g.diam = d; return g }

// Clique is an implicit complete graph on n >= 2 nodes. It avoids
// materializing the Θ(n²) edge list, so million-edge cliques stay cheap.
type Clique struct {
	n int
}

var _ Graph = Clique{}
var _ DiameterKnower = Clique{}

// NewClique returns the complete graph K_n. It panics if n < 2.
func NewClique(n int) Clique {
	if n < 2 {
		panic(fmt.Sprintf("graph: clique needs n >= 2, got %d", n))
	}
	return Clique{n: n}
}

// N returns the number of nodes.
func (c Clique) N() int { return c.n }

// M returns n(n-1)/2.
func (c Clique) M() int { return c.n * (c.n - 1) / 2 }

// Degree returns n-1 for every node.
func (c Clique) Degree(int) int { return c.n - 1 }

// NeighborAt enumerates all nodes except v.
func (c Clique) NeighborAt(v, i int) int {
	if i >= v {
		return i + 1
	}
	return i
}

// ForEachEdge enumerates all pairs u < w.
func (c Clique) ForEachEdge(fn func(u, w int)) {
	for u := 0; u < c.n; u++ {
		for w := u + 1; w < c.n; w++ {
			fn(u, w)
		}
	}
}

// SampleEdge returns a uniform ordered pair of distinct nodes.
func (c Clique) SampleEdge(r *xrand.Rand) (int, int) {
	u := r.Intn(c.n)
	w := r.Intn(c.n - 1)
	if w >= u {
		w++
	}
	return u, w
}

// Name returns "clique-n".
func (c Clique) Name() string { return fmt.Sprintf("clique-%d", c.n) }

// KnownDiameter returns 1.
func (c Clique) KnownDiameter() int { return 1 }
