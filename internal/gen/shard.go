// Shard constructors: the partition-local input of each generator
// family, built without ever materialising a *graph.Graph. Each returns
// a partition.ShardedInput whose Stream is the SAME canonical edge
// stream the full constructor in gen.go consumes; the input's Router
// keeps, per hosted machine, only the arcs incident to that machine's
// Home-owned vertices — so the union of all k shards is bit-identical to
// the full graph by construction (asserted per family by the shard/full
// equivalence suite).
//
// Cost note: under a hashed RVP the stream must be REPLAYED in full — an
// undirected edge {u,v} with u remote and v local is decided by row u's
// RNG, which machine m can only reproduce by running row u. One replay
// is O(n+m) time and feeds every shard a process hosts, so an in-process
// cluster pays it once for all k machines, and a one-machine process
// pays it once for O((n+m)/k) retained memory, the resource the model
// (and E23) bounds per machine. The structured families (Star, Path,
// Cycle) have O(n)-edge streams, the same order as the hash pass that
// finds any machine's local vertices.
package gen

import (
	"fmt"

	"kmachine/internal/partition"
)

// sharded wraps a canonical stream that cannot fail as the
// ShardedInput of partition ps.
func sharded(ps partition.Spec, directed bool, stream func(emit func(u, v int32))) *partition.ShardedInput {
	return &partition.ShardedInput{
		Spec:     ps,
		Directed: directed,
		Stream: func(emit func(u, v int32)) error {
			stream(emit)
			return nil
		},
	}
}

// GnpShard is the sharded input of Gnp(ps.N, p, seed) — the registry's
// sharded counterpart of NewRVP(Gnp(n, p, seed), k, ps.Seed).
func GnpShard(ps partition.Spec, p float64, seed uint64) *partition.ShardedInput {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: GnpShard probability %v out of [0,1]", p))
	}
	return sharded(ps, false, func(emit func(u, v int32)) { gnpStream(ps.N, p, seed, emit) })
}

// DirectedGnpShard is the sharded input of DirectedGnp(ps.N, p, seed).
func DirectedGnpShard(ps partition.Spec, p float64, seed uint64) *partition.ShardedInput {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: DirectedGnpShard probability %v out of [0,1]", p))
	}
	return sharded(ps, true, func(emit func(u, v int32)) { directedGnpStream(ps.N, p, seed, emit) })
}

// GnmShard is the sharded input of Gnm(ps.N, mEdges, seed).
func GnmShard(ps partition.Spec, mEdges int, seed uint64) *partition.ShardedInput {
	maxM := ps.N * (ps.N - 1) / 2
	if mEdges > maxM {
		panic(fmt.Sprintf("gen: GnmShard wants %d edges but K_%d has only %d", mEdges, ps.N, maxM))
	}
	return sharded(ps, false, func(emit func(u, v int32)) { gnmStream(ps.N, mEdges, seed, emit) })
}

// PreferentialAttachmentShard is the sharded input of
// PreferentialAttachment(ps.N, attach, seed). The global degree state is
// inherent to the model, so every replay runs the whole attachment
// stream; only the hosted machines' rows are retained.
func PreferentialAttachmentShard(ps partition.Spec, attach int, seed uint64) *partition.ShardedInput {
	if attach < 1 {
		panic("gen: PreferentialAttachmentShard needs attach >= 1")
	}
	return sharded(ps, false, func(emit func(u, v int32)) { paStream(ps.N, attach, seed, emit) })
}

// EdgelessInput returns the ShardedInput for problems whose graph is
// empty (dsort, routing): each machine's shard is just its local vertex
// set.
func EdgelessInput(ps partition.Spec) *partition.ShardedInput {
	return &partition.ShardedInput{Spec: ps}
}
