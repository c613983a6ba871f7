// Partition-local input: the machinery that lets one process hold only
// its machine's Õ((n+m)/k) share of the graph, which is the k-machine
// model's own input assumption (§1.1: "the input is already partitioned
// when the computation starts"; likewise Klauck et al.'s input
// distribution). A Spec describes the RVP without materialising anything
// — homes are a pure hash — and a Router replays one canonical edge
// stream into the LocalBuilders of the machines a process hosts, each of
// which turns exactly its machine's adjacency rows into a LocalView, a
// CSR with no *graph.Graph behind it.

package partition

import (
	"fmt"
	"slices"

	"kmachine/internal/core"
)

// Spec is an unmaterialised random vertex partition: n vertices hashed
// onto k machines with the given seed. It carries no per-vertex state —
// every quantity below is derived from the hash — so any process can
// hold a Spec for any n.
type Spec struct {
	// N is the global vertex count.
	N int
	// K is the number of machines.
	K int
	// Seed drives the Home hash (the registry convention seeds it at
	// problem seed + 1, exactly like NewRVP).
	Seed uint64
}

// HomeOf returns the home machine of v: the same pure hash NewRVP
// materialises, so a Spec and a NewRVP with equal (k, seed) agree on
// every vertex.
func (s Spec) HomeOf(v int32) core.MachineID { return Home(s.Seed, v, s.K) }

// Router feeds one canonical edge stream to the LocalBuilders of a set
// of hosted machines: each edge is hashed to its endpoints' homes and
// appended to those machines' builders, so a process hosting all k
// machines builds every shard from a single replay, and a process
// hosting one machine keeps only that machine's arcs.
type Router struct {
	spec     Spec
	directed bool
	builders []*LocalBuilder // by machine; nil for a machine not hosted
}

// NewRouter returns a router whose builders hold the shards of the
// hosted machines under spec. Finding the local vertices costs one O(n)
// hash pass — the one pass sharded setup cannot avoid under a hashed
// RVP (local IDs are only enumerable by evaluating the hash) — shared by
// every hosted machine.
func NewRouter(spec Spec, directed bool, hosted ...core.MachineID) *Router {
	if spec.N < 0 || spec.K < 1 {
		panic(fmt.Sprintf("partition: bad shard spec n=%d k=%d", spec.N, spec.K))
	}
	r := &Router{spec: spec, directed: directed, builders: make([]*LocalBuilder, spec.K)}
	for _, m := range hosted {
		if int(m) < 0 || int(m) >= spec.K {
			panic(fmt.Sprintf("partition: shard machine %d out of [0,%d)", m, spec.K))
		}
		r.builders[m] = &LocalBuilder{spec: spec, self: m, directed: directed,
			locals: make([]int32, 0, spec.N/spec.K+1)}
	}
	for v := int32(0); int(v) < spec.N; v++ {
		if b := r.builders[spec.HomeOf(v)]; b != nil {
			b.locals = append(b.locals, v)
		}
	}
	return r
}

// Add routes the undirected edge {u,v} — or, for a directed router, the
// arc u->v — to the builders of u's and v's home machines: an out-arc at
// u's home, and at v's home the reverse arc (undirected) or an in-arc
// (directed; the home machine knows both directions of its vertices'
// incident edges, §1.1). Arcs for machines not hosted are dropped, so
// the full stream can be replayed through any router. Self-loops are
// ignored (matching graph.Builder); out-of-range endpoints panic.
func (r *Router) Add(u, v int32) {
	if u < 0 || int(u) >= r.spec.N || v < 0 || int(v) >= r.spec.N {
		panic(fmt.Sprintf("partition: shard edge (%d,%d) out of range [0,%d)", u, v, r.spec.N))
	}
	if u == v {
		return
	}
	if b := r.builders[r.spec.HomeOf(u)]; b != nil {
		b.out = append(b.out, packArc(u, v))
	}
	if b := r.builders[r.spec.HomeOf(v)]; b != nil {
		if r.directed {
			b.in = append(b.in, packArc(v, u))
		} else {
			b.out = append(b.out, packArc(v, u))
		}
	}
}

// Build finalises every hosted builder. The result is indexed by
// machine ID, nil for a machine the router does not host.
func (r *Router) Build() []*LocalView {
	views := make([]*LocalView, len(r.builders))
	for m, b := range r.builders {
		if b != nil {
			views[m] = b.Build()
		}
	}
	return views
}

// packArc packs the arc (local tail u, head v) into one word whose
// natural order is (u, v) order: both IDs are non-negative, so sorting
// the words sorts the arcs by row, then by neighbour.
func packArc(u, v int32) uint64 { return uint64(u)<<32 | uint64(v) }

// LocalBuilder accumulates one machine's shard: exactly the arcs whose
// tail is homed on the machine, as packed (u<<32 | v) words that a
// Router appends after filtering by the Spec.HomeOf hash. No per-vertex
// index is kept: Build recovers the rows by sorting the words and
// merging them against the sorted locals.
type LocalBuilder struct {
	spec     Spec
	self     core.MachineID
	directed bool
	locals   []int32  // the machine's vertices, increasing
	out      []uint64 // packed (local tail, head) arcs
	in       []uint64 // packed (local head, tail) arcs, directed only
}

// Build finalises the shard: sort, dedupe, CSR. The builder's arc
// buffers are released; only the O(local rows) CSR is retained.
func (b *LocalBuilder) Build() *LocalView {
	lv := &LocalView{
		spec:     b.spec,
		self:     b.self,
		directed: b.directed,
		locals:   b.locals,
	}
	lv.outOffs, lv.outTgts = csr(b.locals, b.out)
	if b.directed {
		lv.inOffs, lv.inTgts = csr(b.locals, b.in)
	}
	b.out, b.in = nil, nil
	return lv
}

// csr turns packed arcs into a deduped CSR indexed by local row,
// mirroring graph.Builder's sort-dedupe semantics. Every arc's tail is
// in locals, and locals are in increasing ID order, so the sorted arcs
// are already in row order: one merge fills the offsets.
func csr(locals []int32, arcs []uint64) (offs, tgts []int32) {
	slices.Sort(arcs)
	arcs = slices.Compact(arcs)
	offs = make([]int32, len(locals)+1)
	tgts = make([]int32, len(arcs))
	i := 0
	for r, u := range locals {
		offs[r] = int32(i)
		for ; i < len(arcs) && int32(arcs[i]>>32) == u; i++ {
			tgts[i] = int32(uint32(arcs[i]))
		}
	}
	offs[len(locals)] = int32(i)
	return offs, tgts
}

// LocalView is a machine-local View backed by a per-machine CSR of the
// machine's own adjacency rows — no global graph object. Setup memory is
// O((n+m)/k) per machine instead of the GraphView's O(n+m) per process,
// which is what lets a k-process run hold inputs no single process
// could. Accessor semantics (including the non-local panic) match
// GraphView exactly; the parity and shard/full equivalence suites assert
// bit-identical adjacency against the materialised path.
type LocalView struct {
	spec     Spec
	self     core.MachineID
	directed bool
	locals   []int32
	outOffs  []int32
	outTgts  []int32
	inOffs   []int32
	inTgts   []int32
}

// Self returns the owning machine.
func (v *LocalView) Self() core.MachineID { return v.self }

// K returns the number of machines.
func (v *LocalView) K() int { return v.spec.K }

// N returns the global vertex count (public knowledge in the model).
func (v *LocalView) N() int { return v.spec.N }

// Locals returns this machine's vertices in increasing ID order.
func (v *LocalView) Locals() []int32 { return v.locals }

// IsLocal reports whether u is homed here. Local rows are found by
// binary search over the sorted locals — a map would cost tens of bytes
// per vertex of pure overhead, a real fraction of the Õ((n+m)/k) budget
// the shard exists to respect.
func (v *LocalView) IsLocal(u int32) bool {
	_, ok := slices.BinarySearch(v.locals, u)
	return ok
}

// HomeOf returns the home machine of any vertex: the hash is public, so
// no per-vertex state is needed (this is the O(1)/O(0)-memory answer the
// GraphView precomputes as an O(n) array).
func (v *LocalView) HomeOf(u int32) core.MachineID { return Home(v.spec.Seed, u, v.spec.K) }

// OutAdj returns the out-neighbours (or neighbours, if undirected) of a
// LOCAL vertex, sorted. The slice aliases the shard's CSR.
func (v *LocalView) OutAdj(u int32) []int32 {
	r := v.mustLocal(u, "OutAdj")
	return v.outTgts[v.outOffs[r]:v.outOffs[r+1]]
}

// InAdj returns the in-neighbours of a LOCAL vertex.
func (v *LocalView) InAdj(u int32) []int32 {
	r := v.mustLocal(u, "InAdj")
	if !v.directed {
		return v.outTgts[v.outOffs[r]:v.outOffs[r+1]]
	}
	return v.inTgts[v.inOffs[r]:v.inOffs[r+1]]
}

// Degree returns the out-degree of a LOCAL vertex.
func (v *LocalView) Degree(u int32) int {
	r := v.mustLocal(u, "Degree")
	return int(v.outOffs[r+1] - v.outOffs[r])
}

// LocalArcs returns the number of stored adjacency entries — the shard's
// actual size, which the setup-cost experiment (E23) reports against the
// full graph's 2m (undirected) or m+m (directed CSR + reverse) entries.
func (v *LocalView) LocalArcs() int { return len(v.outTgts) + len(v.inTgts) }

func (v *LocalView) mustLocal(u int32, op string) int32 {
	r, ok := slices.BinarySearch(v.locals, u)
	if !ok {
		panic(fmt.Sprintf("partition: machine %d illegally accessed %s(%d), homed at %d",
			v.self, op, u, v.HomeOf(u)))
	}
	return int32(r)
}

// ShardedInput is the partition-local Input: the graph is a canonical
// edge stream (a generator replay or an edge-list scan), and a Router
// turns one replay of it into the shards of every machine the caller
// asks for. Views builds all k from a single pass (the in-process
// substrates); MachineView(m) builds m's alone, so a process hosting one
// machine (cmd/kmnode -id) holds only that machine's rows. No path ever
// holds a global graph object.
type ShardedInput struct {
	// Spec is the partition every shard is built under.
	Spec Spec
	// Directed says whether Stream emits arcs u->v (true) or undirected
	// edges {u,v}.
	Directed bool
	// Stream replays the graph, calling emit once per edge or arc; it
	// may be called once per Views or MachineView call. A nil Stream is
	// the edgeless graph.
	Stream func(emit func(u, v int32)) error
}

// NumMachines implements Input.
func (in *ShardedInput) NumMachines() int { return in.Spec.K }

// MachineView implements Input: one replay, machine m's rows kept.
func (in *ShardedInput) MachineView(m core.MachineID) (View, error) {
	shards, err := in.Shards(m)
	if err != nil {
		return nil, fmt.Errorf("partition: shard %d: %w", m, err)
	}
	return shards[m], nil
}

// Views implements Input: all k shards from one replay of the stream.
func (in *ShardedInput) Views() ([]View, error) {
	all := make([]core.MachineID, in.Spec.K)
	for m := range all {
		all[m] = core.MachineID(m)
	}
	shards, err := in.Shards(all...)
	if err != nil {
		return nil, fmt.Errorf("partition: shards: %w", err)
	}
	views := make([]View, len(shards))
	for m, lv := range shards {
		views[m] = lv
	}
	return views, nil
}

// Shards replays the stream once through a Router hosting the given
// machines and returns their shards indexed by machine ID (nil for a
// machine not hosted).
func (in *ShardedInput) Shards(hosted ...core.MachineID) ([]*LocalView, error) {
	r := NewRouter(in.Spec, in.Directed, hosted...)
	if in.Stream != nil {
		if err := in.Stream(r.Add); err != nil {
			return nil, err
		}
	}
	return r.Build(), nil
}
