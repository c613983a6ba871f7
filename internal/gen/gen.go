// Package gen generates the graph families used throughout the paper's
// arguments and this reproduction's experiments:
//
//   - Gnp / Gnm Erdős–Rényi graphs — the triangle lower bound (Theorem 3)
//     samples inputs from G(n, 1/2);
//   - the Figure-1 lower-bound graph H for PageRank (Theorem 2), with its
//     random edge-direction bit vector and random vertex-ID obfuscation;
//   - stars and preferential-attachment (power-law) graphs — the skewed
//     inputs on which the congestion-avoidance machinery of §3
//     (aggregation, heavy-vertex handling, proxies) is exercised;
//   - paths, cycles, complete and complete-bipartite graphs for
//     closed-form sanity checks;
//   - planted-triangle graphs for sparse enumeration tests.
//
// All generators are deterministic given their seed.
//
// # Per-row canonical form
//
// The random families (Gnp, DirectedGnp, Gnm, PreferentialAttachment)
// are defined by a canonical edge stream that a shard builder can replay
// (shard.go): Gnp and DirectedGnp derive one independent RNG stream per
// adjacency row (rowRNG), so row u's edges are a pure function of
// (seed, u) and the union of any row subset is bit-identical to the
// corresponding slice of the full graph; Gnm and PreferentialAttachment
// keep a single sequential stream (global dedupe and global degree state
// are inherent to those models) that shard builders replay while
// retaining only their machine's rows. The full constructors below and
// the *Shard inputs (shard.go) consume the SAME streams, which is what
// makes sharded and fully-materialised setup bit-identical by
// construction.
package gen

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"kmachine/internal/graph"
	"kmachine/internal/rng"
)

// rowRNG returns the independent RNG stream of adjacency row u: the
// per-row seeding that makes every row a pure function of (seed, u).
func rowRNG(seed uint64, u int32) *rng.RNG {
	return rng.NewStream(seed, uint64(uint32(u)))
}

// gnpRow emits row u of the canonical G(n, p) upper-triangular form: the
// neighbours v in (u, n) chosen by row u's stream with Batagelj–Brandes
// geometric skipping, so the expected work per row is O(p·(n-u)), not
// O(n). The undirected edge {u,v}, u < v, exists iff row u emits v.
func gnpRow(n int, p float64, seed uint64, u int32, emit func(v int32)) {
	if p >= 1 {
		for v := int(u) + 1; v < n; v++ {
			emit(int32(v))
		}
		return
	}
	r := rowRNG(seed, u)
	lq := math.Log1p(-p)
	v := int(u)
	for {
		g := math.Floor(math.Log(1-r.Float64()) / lq)
		if g >= float64(n-v-1) { // v + 1 + g would leave the row
			return
		}
		v += 1 + int(g)
		emit(int32(v))
	}
}

// gnpStream replays the canonical G(n, p) edge stream: every row in
// order, each edge {u,v} (u < v) emitted once.
func gnpStream(n int, p float64, seed uint64, emit func(u, v int32)) {
	if p <= 0 || n < 2 {
		return
	}
	for u := 0; u < n-1; u++ {
		gnpRow(n, p, seed, int32(u), func(v int32) { emit(int32(u), v) })
	}
}

// Gnp samples an undirected Erdős–Rényi G(n, p) graph in its per-row
// canonical form (see the package comment): row-seeded geometric
// skipping, linear in the number of edges.
func Gnp(n int, p float64, seed uint64) *graph.Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: Gnp probability %v out of [0,1]", p))
	}
	b := graph.NewBuilder(n, false)
	gnpStream(n, p, seed, func(u, v int32) { b.AddEdge(int(u), int(v)) })
	return b.Build()
}

// directedGnpRow emits row u of the canonical directed G(n, p): the
// out-neighbours of u, chosen from [0,n)\{u} by row u's stream with
// geometric skipping over the n-1 candidate slots.
func directedGnpRow(n int, p float64, seed uint64, u int32, emit func(v int32)) {
	if p >= 1 {
		for v := 0; v < n; v++ {
			if int32(v) != u {
				emit(int32(v))
			}
		}
		return
	}
	r := rowRNG(seed, u)
	lq := math.Log1p(-p)
	slot := -1 // slots 0..n-2 map to columns skipping u
	for {
		g := math.Floor(math.Log(1-r.Float64()) / lq)
		if g >= float64(n-1-slot-1) {
			return
		}
		slot += 1 + int(g)
		col := int32(slot)
		if col >= u {
			col++
		}
		emit(col)
	}
}

// DirectedGnp samples a directed G(n, p) in per-row canonical form:
// every ordered pair (u,v), u != v, is an arc independently with
// probability p, decided by row u's stream.
func DirectedGnp(n int, p float64, seed uint64) *graph.Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: DirectedGnp probability %v out of [0,1]", p))
	}
	b := graph.NewBuilder(n, true)
	directedGnpStream(n, p, seed, func(u, v int32) { b.AddEdge(int(u), int(v)) })
	return b.Build()
}

// directedGnpStream replays the canonical directed G(n, p) arc stream:
// every row in order, each arc u->v emitted once.
func directedGnpStream(n int, p float64, seed uint64, emit func(u, v int32)) {
	if p <= 0 {
		return
	}
	for u := 0; u < n; u++ {
		directedGnpRow(n, p, seed, int32(u), func(v int32) { emit(int32(u), v) })
	}
}

// gnmStream replays the canonical G(n, m) edge stream: the first m
// distinct unordered pairs of the seed's candidate sequence (pairs drawn
// uniformly, self-pairs skipped). The dedupe is slice-based — sample,
// sort, count, top up — so the stream allocates a few flat slices
// instead of a map of every edge (see BenchmarkGnm).
func gnmStream(n, m int, seed uint64, emit func(u, v int32)) {
	if m == 0 {
		return
	}
	r := rng.New(seed)
	draws := make([][2]int32, 0, m+m/8+8)
	// Draw in batches until the draw sequence contains >= m distinct
	// pairs; near-clique inputs need the top-up rounds (coupon
	// collector), sparse ones finish in one.
	distinct := 0
	scratch := make([][2]int32, 0, m+m/8+8)
	for distinct < m {
		need := m - distinct
		need += need/8 + 1
		for i := 0; i < need; i++ {
			u := int32(r.Intn(n))
			v := int32(r.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			draws = append(draws, [2]int32{u, v})
		}
		scratch = append(scratch[:0], draws...)
		sort.Slice(scratch, func(i, j int) bool {
			if scratch[i][0] != scratch[j][0] {
				return scratch[i][0] < scratch[j][0]
			}
			return scratch[i][1] < scratch[j][1]
		})
		distinct = 0
		for i, p := range scratch {
			if i == 0 || p != scratch[i-1] {
				distinct++
			}
		}
	}
	// The canonical edge set is the first m distinct pairs in DRAW
	// order: sort draw indices by (pair, index), keep each pair's first
	// occurrence, then take the m earliest first-occurrences.
	idx := make([]int32, len(draws))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := draws[idx[a]], draws[idx[b]]
		if pa != pb {
			if pa[0] != pb[0] {
				return pa[0] < pb[0]
			}
			return pa[1] < pb[1]
		}
		return idx[a] < idx[b]
	})
	firsts := idx[:0]
	for i, id := range idx {
		if i == 0 || draws[id] != draws[idx[i-1]] {
			firsts = append(firsts, id)
		} else if firsts[len(firsts)-1] > id { // kept a later occurrence
			firsts[len(firsts)-1] = id
		}
	}
	slices.Sort(firsts)
	for _, id := range firsts[:m] {
		emit(draws[id][0], draws[id][1])
	}
}

// Gnm samples an undirected graph with exactly m distinct edges chosen
// uniformly from all pairs. It panics if m exceeds C(n,2).
func Gnm(n, m int, seed uint64) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("gen: Gnm wants %d edges but K_%d has only %d", m, n, maxM))
	}
	b := graph.NewBuilder(n, false)
	gnmStream(n, m, seed, func(u, v int32) { b.AddEdge(int(u), int(v)) })
	return b.Build()
}

// Star returns the undirected star K_{1,n-1} with hub 0. The star is the
// paper's running example (§3.1) of a topology whose naive simulation
// congests one machine.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	starStream(n, func(u, v int32) { b.AddEdge(int(u), int(v)) })
	return b.Build()
}

// starStream replays Star(n)'s edges {0,i}, i = 1..n-1.
func starStream(n int, emit func(u, v int32)) {
	for i := 1; i < n; i++ {
		emit(0, int32(i))
	}
}

// DirectedStarIn returns the directed star with all arcs pointing at
// hub 0 (the congestion example for PageRank token delivery).
func DirectedStarIn(n int) *graph.Graph {
	b := graph.NewBuilder(n, true)
	for i := 1; i < n; i++ {
		b.AddEdge(i, 0)
	}
	return b.Build()
}

// Path returns the undirected path 0-1-...-(n-1).
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	pathStream(n, func(u, v int32) { b.AddEdge(int(u), int(v)) })
	return b.Build()
}

// pathStream replays Path(n)'s edges {i,i+1}.
func pathStream(n int, emit func(u, v int32)) {
	for i := 0; i+1 < n; i++ {
		emit(int32(i), int32(i+1))
	}
}

// Cycle returns the undirected cycle on n vertices (n >= 3).
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: Cycle needs n >= 3")
	}
	b := graph.NewBuilder(n, false)
	cycleStream(n, func(u, v int32) { b.AddEdge(int(u), int(v)) })
	return b.Build()
}

// cycleStream replays Cycle(n)'s edges {i,(i+1) mod n}.
func cycleStream(n int, emit func(u, v int32)) {
	for i := 0; i < n; i++ {
		emit(int32(i), int32((i+1)%n))
	}
}

// DirectedCycle returns the directed cycle 0->1->...->0.
func DirectedCycle(n int) *graph.Graph {
	if n < 2 {
		panic("gen: DirectedCycle needs n >= 2")
	}
	b := graph.NewBuilder(n, true)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// Complete returns K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b} with parts [0,a) and [a,a+b).
func CompleteBipartite(a, b int) *graph.Graph {
	bl := graph.NewBuilder(a+b, false)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bl.AddEdge(u, v)
		}
	}
	return bl.Build()
}

// paStream replays the canonical preferential-attachment stream: the
// seed graph's clique edges, then each arriving vertex's `attach`
// endpoints drawn degree-proportionally (repeated-endpoint list, +1
// smoothing) in a fixed order. The chosen endpoints of each vertex are
// sorted before being appended to the endpoint list, so the stream — and
// therefore the graph — is a pure function of (n, attach, seed); the
// pre-fix code appended them in Go map iteration order, which silently
// broke the package's seed-determinism promise for every later draw.
func paStream(n, attach int, seed uint64, emit func(u, v int32)) {
	r := rng.New(seed)
	endpoints := make([]int32, 0, 2*n*attach)
	for v := 0; v < n && v <= attach; v++ {
		endpoints = append(endpoints, int32(v))
		for u := 0; u < v; u++ {
			emit(int32(u), int32(v))
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
	chosen := make([]int32, 0, attach)
	for v := attach + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < attach {
			u := endpoints[r.Intn(len(endpoints))]
			if int(u) == v || slices.Contains(chosen, u) {
				continue
			}
			chosen = append(chosen, u)
		}
		slices.Sort(chosen)
		endpoints = append(endpoints, int32(v))
		for _, u := range chosen {
			emit(u, int32(v))
			endpoints = append(endpoints, u, int32(v))
		}
	}
}

// PreferentialAttachment grows a Barabási–Albert style power-law graph:
// vertices arrive one at a time and attach `attach` edges to existing
// vertices chosen proportionally to degree (+1 smoothing). The result
// has heavy-tailed degrees — the regime where the paper's heavy-vertex
// and proxy machinery matters.
func PreferentialAttachment(n, attach int, seed uint64) *graph.Graph {
	if attach < 1 {
		panic("gen: PreferentialAttachment needs attach >= 1")
	}
	b := graph.NewBuilder(n, false)
	paStream(n, attach, seed, func(u, v int32) { b.AddEdge(int(u), int(v)) })
	return b.Build()
}

// PlantedTriangles returns a sparse graph consisting of t vertex-disjoint
// triangles plus `extra` random non-closing chord attempts, so that the
// exact triangle set is known by construction when extra == 0.
func PlantedTriangles(t int, extra int, seed uint64) *graph.Graph {
	n := 3 * t
	r := rng.New(seed)
	b := graph.NewBuilder(n, false)
	for i := 0; i < t; i++ {
		a, bb, c := 3*i, 3*i+1, 3*i+2
		b.AddEdge(a, bb)
		b.AddEdge(bb, c)
		b.AddEdge(a, c)
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u/3 != v/3 { // never add chords inside a planted triangle group
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}
