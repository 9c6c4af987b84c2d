package graph

import (
	"fmt"
	"math"

	"popgraph/internal/xrand"
)

// Cycle returns the n-cycle C_n (n >= 3).
func Cycle(n int) *Dense {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	mustFit("cycle", float64(n), float64(n))
	packed := make([]int64, 0, n)
	for v := 0; v < n-1; v++ {
		packed = append(packed, pack(v, v+1))
	}
	packed = append(packed, pack(0, n-1))
	return newDenseUnchecked(n, sortPacked(packed), fmt.Sprintf("cycle-%d", n)).setDiam(n / 2)
}

// Path returns the path P_n on n >= 2 nodes.
func Path(n int) *Dense {
	if n < 2 {
		panic(fmt.Sprintf("graph: path needs n >= 2, got %d", n))
	}
	mustFit("path", float64(n), float64(n-1))
	packed := make([]int64, 0, n-1)
	for v := 0; v < n-1; v++ {
		packed = append(packed, pack(v, v+1))
	}
	return newDenseUnchecked(n, packed, fmt.Sprintf("path-%d", n)).setDiam(n - 1)
}

// Star returns the star K_{1,n-1} with node 0 as the center (n >= 2).
func Star(n int) *Dense {
	if n < 2 {
		panic(fmt.Sprintf("graph: star needs n >= 2, got %d", n))
	}
	mustFit("star", float64(n), float64(n-1))
	packed := make([]int64, 0, n-1)
	for v := 1; v < n; v++ {
		packed = append(packed, pack(0, v))
	}
	d := 2
	if n == 2 {
		d = 1
	}
	return newDenseUnchecked(n, packed, fmt.Sprintf("star-%d", n)).setDiam(d)
}

// CompleteBipartite returns K_{a,b}: parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Dense {
	if a < 1 || b < 1 || a+b < 2 {
		panic(fmt.Sprintf("graph: K_{%d,%d} invalid", a, b))
	}
	mustFit("bipartite", float64(a)+float64(b), float64(a)*float64(b))
	packed := make([]int64, 0, a*b)
	for u := 0; u < a; u++ {
		for w := a; w < a+b; w++ {
			packed = append(packed, pack(u, w))
		}
	}
	d := 2
	if a == 1 && b == 1 {
		d = 1
	}
	return newDenseUnchecked(a+b, packed, fmt.Sprintf("bipartite-%d-%d", a, b)).setDiam(d)
}

// Torus2D returns the rows×cols 2-dimensional torus (wraparound grid).
// Both dimensions must be >= 3 so the graph stays simple. It is 4-regular.
func Torus2D(rows, cols int) *Dense {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus needs dims >= 3, got %dx%d", rows, cols))
	}
	mustFit("torus", float64(rows)*float64(cols), 2*float64(rows)*float64(cols))
	n := rows * cols
	packed := make([]int64, 0, 2*n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			packed = append(packed, pack(id(r, c), id(r, (c+1)%cols)))
			packed = append(packed, pack(id(r, c), id((r+1)%rows, c)))
		}
	}
	return newDenseUnchecked(n, sortPacked(packed),
		fmt.Sprintf("torus-%dx%d", rows, cols)).setDiam(rows/2 + cols/2)
}

// TorusK returns the k-dimensional torus with the given side lengths
// (each >= 3): nodes are mixed-radix tuples, adjacent when they differ by
// ±1 (mod side) in exactly one coordinate. 2k-regular; Section 6.2 notes
// these graphs are Ω(n^{1+1/k})-renitent.
func TorusK(dims ...int) *Dense {
	if len(dims) < 1 {
		panic("graph: TorusK needs at least one dimension")
	}
	n := 1
	diam := 0
	for _, d := range dims {
		if d < 3 {
			panic(fmt.Sprintf("graph: TorusK dims must be >= 3, got %v", dims))
		}
		if n > 1<<26/d {
			panic(fmt.Sprintf("graph: TorusK %v too large", dims))
		}
		n *= d
		diam += d / 2
	}
	// Mixed-radix strides: coordinate i changes in steps of stride[i].
	stride := make([]int, len(dims))
	stride[len(dims)-1] = 1
	for i := len(dims) - 2; i >= 0; i-- {
		stride[i] = stride[i+1] * dims[i+1]
	}
	packed := make([]int64, 0, n*len(dims))
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		for i, d := range dims {
			next := v + stride[i]
			if coord[i] == d-1 {
				next = v - (d-1)*stride[i] // wrap around
			}
			packed = append(packed, pack(v, next))
		}
		// Increment the mixed-radix counter.
		for i := len(dims) - 1; i >= 0; i-- {
			coord[i]++
			if coord[i] < dims[i] {
				break
			}
			coord[i] = 0
		}
	}
	name := "torusk"
	for _, d := range dims {
		name += fmt.Sprintf("-%d", d)
	}
	return newDenseUnchecked(n, sortPacked(packed), name).setDiam(diam)
}

// Grid2D returns the rows×cols grid without wraparound (dims >= 2).
func Grid2D(rows, cols int) *Dense {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic(fmt.Sprintf("graph: grid %dx%d invalid", rows, cols))
	}
	mustFit("grid", float64(rows)*float64(cols), 2*float64(rows)*float64(cols))
	n := rows * cols
	packed := make([]int64, 0, 2*n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				packed = append(packed, pack(id(r, c), id(r, c+1)))
			}
			if r+1 < rows {
				packed = append(packed, pack(id(r, c), id(r+1, c)))
			}
		}
	}
	return newDenseUnchecked(n, sortPacked(packed),
		fmt.Sprintf("grid-%dx%d", rows, cols)).setDiam(rows + cols - 2)
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes (dim >= 1).
func Hypercube(dim int) *Dense {
	if dim < 1 || dim > 24 {
		panic(fmt.Sprintf("graph: hypercube dim %d out of range [1,24]", dim))
	}
	n := 1 << dim
	packed := make([]int64, 0, n*dim/2)
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			w := v ^ (1 << b)
			if v < w {
				packed = append(packed, pack(v, w))
			}
		}
	}
	return newDenseUnchecked(n, sortPacked(packed), fmt.Sprintf("hypercube-%d", dim)).setDiam(dim)
}

// BinaryTree returns the complete binary tree of the given depth
// (depth 0 is a single edge... no: depth d has 2^(d+1)-1 nodes; depth >= 1).
func BinaryTree(depth int) *Dense {
	if depth < 1 || depth > 24 {
		panic(fmt.Sprintf("graph: binary tree depth %d out of range [1,24]", depth))
	}
	n := 1<<(depth+1) - 1
	packed := make([]int64, 0, n-1)
	for v := 1; v < n; v++ {
		packed = append(packed, pack((v-1)/2, v))
	}
	return newDenseUnchecked(n, packed, fmt.Sprintf("bintree-%d", depth)).setDiam(2 * depth)
}

// Lollipop returns a clique on k nodes with a path of pathLen extra nodes
// attached to clique node 0 (k >= 2, pathLen >= 1). A classic
// high-hitting-time graph: H(G) = Θ(k²·pathLen) when k ≈ pathLen.
func Lollipop(k, pathLen int) *Dense {
	if k < 2 || pathLen < 1 {
		panic(fmt.Sprintf("graph: lollipop(%d,%d) invalid", k, pathLen))
	}
	mustFit("lollipop", float64(k)+float64(pathLen), float64(k)*float64(k-1)/2+float64(pathLen))
	n := k + pathLen
	packed := make([]int64, 0, k*(k-1)/2+pathLen)
	for u := 0; u < k; u++ {
		for w := u + 1; w < k; w++ {
			packed = append(packed, pack(u, w))
		}
	}
	packed = append(packed, pack(0, k))
	for v := k; v < n-1; v++ {
		packed = append(packed, pack(v, v+1))
	}
	d := pathLen + 1
	if k == 2 {
		d = pathLen + 1 // path end to the far clique node
	}
	return newDenseUnchecked(n, sortPacked(packed),
		fmt.Sprintf("lollipop-%d-%d", k, pathLen)).setDiam(d)
}

// Barbell returns two k-cliques joined by a path of pathLen intermediate
// nodes (k >= 2, pathLen >= 0). With pathLen = 0 the two cliques share one
// edge between node 0 and node k.
func Barbell(k, pathLen int) *Dense {
	if k < 2 || pathLen < 0 {
		panic(fmt.Sprintf("graph: barbell(%d,%d) invalid", k, pathLen))
	}
	mustFit("barbell", 2*float64(k)+float64(pathLen), float64(k)*float64(k-1)+float64(pathLen)+1)
	n := 2*k + pathLen
	packed := make([]int64, 0, k*(k-1)+pathLen+1)
	for u := 0; u < k; u++ {
		for w := u + 1; w < k; w++ {
			packed = append(packed, pack(u, w))
			packed = append(packed, pack(k+u, k+w))
		}
	}
	// Chain: clique-A node 0 — path nodes 2k..2k+pathLen-1 — clique-B node k.
	prev := 0
	for i := 0; i < pathLen; i++ {
		packed = append(packed, pack(prev, 2*k+i))
		prev = 2*k + i
	}
	packed = append(packed, pack(prev, k))
	return newDenseUnchecked(n, sortPacked(packed),
		fmt.Sprintf("barbell-%d-%d", k, pathLen)).setDiam(pathLen + 3)
}

// Gnp samples an Erdős–Rényi random graph G(n, p) conditioned on being
// connected (the conditioning used throughout Sections 4 and 7). It retries
// up to 1000 draws and returns ErrDisconnected if none is connected.
func Gnp(n int, p float64, r *xrand.Rand) (*Dense, error) {
	if n < 2 || !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("graph: Gnp(%d, %v): %w", n, p, ErrInvalidEdge)
	}
	// The expected edge count: gnpEdges preallocates for it.
	if err := checkSize("gnp", float64(n), p*float64(n)*float64(n-1)/2); err != nil {
		return nil, err
	}
	for try := 0; try < 1000; try++ {
		packed := gnpEdges(n, p, r)
		g := newDenseUnchecked(n, packed, fmt.Sprintf("gnp-%d-p%.2f", n, p))
		if connected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: Gnp(%d, %v) stayed disconnected after 1000 draws: %w",
		n, p, ErrDisconnected)
}

// gnpEdges samples the edge set of G(n,p) with geometric skipping, so the
// cost is O(n + pn²) rather than O(n²) for sparse p.
func gnpEdges(n int, p float64, r *xrand.Rand) []int64 {
	total := int64(n) * int64(n-1) / 2
	packed := make([]int64, 0, int(float64(total)*p*1.1)+8)
	if p == 1 {
		for u := 0; u < n; u++ {
			for w := u + 1; w < n; w++ {
				packed = append(packed, pack(u, w))
			}
		}
		return packed
	}
	// Enumerate pair indices 0..total-1 lexicographically and skip ahead
	// by Geom(p) each time.
	idx := int64(-1)
	for {
		idx += r.Geometric(p)
		if idx >= total {
			return packed
		}
		u, w := unrankPair(idx, n)
		packed = append(packed, pack(u, w))
	}
}

// unrankPair maps a lexicographic rank to the pair (u, w), u < w, where
// rank 0 = (0,1), 1 = (0,2), ..., n-2 = (0,n-1), n-1 = (1,2), ...
func unrankPair(rank int64, n int) (int, int) {
	u := 0
	rowLen := int64(n - 1)
	for rank >= rowLen {
		rank -= rowLen
		rowLen--
		u++
	}
	return u, u + 1 + int(rank)
}

// WattsStrogatz samples a Watts–Strogatz small-world graph: a ring
// lattice on n nodes with k neighbors per node (k/2 on each side, k
// even), each lattice edge rewired with probability beta to a uniformly
// random non-duplicate endpoint. beta = 0 is the pure lattice, beta = 1
// approaches G(n, k/(n-1)); small beta gives the small-world regime —
// lattice-scale clustering with random-graph-scale diameter, hence
// broadcast time B(G) far below the lattice's. The edge count is always
// n·k/2 (rewiring moves edges, never adds or removes them). The sample
// is conditioned on connectivity with up to 1000 retries.
func WattsStrogatz(n, k int, beta float64, r *xrand.Rand) (*Dense, error) {
	if n < 3 || k < 2 || k%2 != 0 || k >= n || math.IsNaN(beta) || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("graph: WattsStrogatz(%d, %d, %v): need n >= 3, even 2 <= k < n, beta in [0,1]: %w",
			n, k, beta, ErrInvalidEdge)
	}
	if err := checkSize("ws", float64(n), float64(n)*float64(k)/2); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("ws-%d-k%d-b%g", n, k, beta)
	for try := 0; try < 1000; try++ {
		g := newDenseUnchecked(n, sortPacked(wsEdges(n, k, beta, r)), name)
		if connected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: WattsStrogatz(%d, %d, %v) stayed disconnected after 1000 draws: %w",
		n, k, beta, ErrDisconnected)
}

// wsEdges builds one rewired ring lattice. The edge set is tracked in a
// map so rewiring never creates duplicates or self-loops; an edge whose
// rewiring target collides keeps its lattice endpoint.
func wsEdges(n, k int, beta float64, r *xrand.Rand) []int64 {
	seen := make(map[int64]struct{}, n*k/2)
	order := make([]int64, 0, n*k/2)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			key := pack(u, (u+j)%n)
			seen[key] = struct{}{}
			order = append(order, key)
		}
	}
	packed := make([]int64, 0, len(order))
	for _, key := range order {
		u := int(key >> 32)
		if beta > 0 && r.Float64() < beta {
			// Rewire the far endpoint; keep the lattice edge when the node
			// is saturated or a bounded number of draws keeps colliding.
			for attempt := 0; attempt < 32; attempt++ {
				w := r.Intn(n)
				cand := pack(u, w)
				if w == u {
					continue
				}
				if _, dup := seen[cand]; dup {
					continue
				}
				delete(seen, key)
				seen[cand] = struct{}{}
				key = cand
				break
			}
		}
		packed = append(packed, key)
	}
	return packed
}

// BarabasiAlbert samples a Barabási–Albert preferential-attachment
// graph: a seed clique on m+1 nodes, then each new node attaches m
// edges to distinct existing nodes with probability proportional to
// their current degree, yielding a power-law degree distribution —
// heavy hubs, the opposite extreme from regular graphs for
// degree-sensitive scheduler dynamics. Connected by construction.
// Requires 1 <= m < n.
func BarabasiAlbert(n, m int, r *xrand.Rand) (*Dense, error) {
	if m < 1 || m >= n {
		return nil, fmt.Errorf("graph: BarabasiAlbert(%d, %d): need 1 <= m < n: %w",
			n, m, ErrInvalidEdge)
	}
	if err := checkSize("ba", float64(n), float64(m)*float64(m+1)/2+float64(n-m-1)*float64(m)); err != nil {
		return nil, err
	}
	mEdges := m * (m + 1) / 2 // seed clique
	packed := make([]int64, 0, mEdges+(n-m-1)*m)
	// targets lists each edge endpoint once, so uniform draws from it are
	// degree-proportional ("repeated nodes" construction).
	targets := make([]int32, 0, 2*cap(packed))
	for u := 0; u <= m; u++ {
		for w := u + 1; w <= m; w++ {
			packed = append(packed, pack(u, w))
			targets = append(targets, int32(u), int32(w))
		}
	}
	// picked is a slice, not a set: map iteration order would leak
	// nondeterminism into the edge stream and break seed reproducibility.
	picked := make([]int32, 0, m)
	for v := m + 1; v < n; v++ {
		picked = picked[:0]
		for len(picked) < m {
			w := targets[r.Intn(len(targets))]
			dup := false
			for _, c := range picked {
				if c == w {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, w)
			}
		}
		for _, w := range picked {
			packed = append(packed, pack(v, int(w)))
			targets = append(targets, int32(v), w)
		}
	}
	return newDenseUnchecked(n, sortPacked(packed), fmt.Sprintf("ba-%d-m%d", n, m)), nil
}

// RandomRegular samples a uniform-ish random d-regular graph on n nodes via
// the Steger–Wormald pairing procedure, restarting on dead ends, and
// conditions on connectivity. Requires 3 <= d < n and n·d even.
func RandomRegular(n, d int, r *xrand.Rand) (*Dense, error) {
	if d < 3 || d >= n || n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular(%d, %d): need 3 <= d < n, n·d even: %w",
			n, d, ErrInvalidEdge)
	}
	if err := checkSize("regular", float64(n), float64(n)*float64(d)/2); err != nil {
		return nil, err
	}
	for try := 0; try < 1000; try++ {
		packed, ok := pairingAttempt(n, d, r)
		if !ok {
			continue
		}
		g := newDenseUnchecked(n, sortPacked(packed), fmt.Sprintf("regular-%d-d%d", n, d))
		if connected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(%d, %d) failed after 1000 attempts: %w",
		n, d, ErrDisconnected)
}

// pairingAttempt runs one Steger–Wormald round: repeatedly pick two random
// free stubs whose pairing creates neither a loop nor a duplicate edge.
// Reports failure when only unusable stub pairs remain.
func pairingAttempt(n, d int, r *xrand.Rand) ([]int64, bool) {
	stubs := make([]int32, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	seen := make(map[int64]struct{}, n*d/2)
	packed := make([]int64, 0, n*d/2)
	for len(stubs) > 0 {
		placed := false
		// A bounded number of rejection-sampling attempts; if the remaining
		// stubs are few, fall back to exhaustively scanning for any valid pair.
		for attempt := 0; attempt < 64; attempt++ {
			i := r.Intn(len(stubs))
			j := r.Intn(len(stubs) - 1)
			if j >= i {
				j++
			}
			u, w := stubs[i], stubs[j]
			if u == w {
				continue
			}
			key := pack(int(min32(u, w)), int(max32(u, w)))
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			packed = append(packed, key)
			// Remove the two stubs (order: larger index first).
			if i < j {
				i, j = j, i
			}
			stubs[i] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			stubs[j] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			placed = true
			break
		}
		if !placed {
			return nil, false
		}
	}
	return packed, true
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func pack(u, w int) int64 {
	if u > w {
		u, w = w, u
	}
	return int64(u)<<32 | int64(w)
}

func sortPacked(packed []int64) []int64 {
	// Insertion of generator output is nearly sorted; stdlib sort is fine.
	sortInt64s(packed)
	return packed
}

func sortInt64s(a []int64) {
	// Simple pdq via sort.Slice to avoid reflect-heavy sort.Sort plumbing.
	if len(a) < 2 {
		return
	}
	quicksortInt64(a)
}

func quicksortInt64(a []int64) {
	for len(a) > 12 {
		p := medianOfThree(a)
		lo, hi := 0, len(a)-1
		for lo <= hi {
			for a[lo] < p {
				lo++
			}
			for a[hi] > p {
				hi--
			}
			if lo <= hi {
				a[lo], a[hi] = a[hi], a[lo]
				lo++
				hi--
			}
		}
		if hi < len(a)-lo {
			quicksortInt64(a[:hi+1])
			a = a[lo:]
		} else {
			quicksortInt64(a[lo:])
			a = a[:hi+1]
		}
	}
	// Insertion sort for small slices.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func medianOfThree(a []int64) int64 {
	lo, mid, hi := a[0], a[len(a)/2], a[len(a)-1]
	if lo > mid {
		lo, mid = mid, lo
	}
	if mid > hi {
		mid = hi
	}
	if lo > mid {
		mid = lo
	}
	return mid
}
