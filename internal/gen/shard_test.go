package gen

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
)

// shardFamily pairs a generator's full constructor with its sharded
// input so the equivalence property below can sweep every family.
type shardFamily struct {
	name     string
	directed bool
	full     func(n int, seed uint64) *graph.Graph
	shard    func(ps partition.Spec, seed uint64) *partition.ShardedInput
}

func shardFamilies() []shardFamily {
	return []shardFamily{
		{"gnp", false,
			func(n int, seed uint64) *graph.Graph { return Gnp(n, 0.06, seed) },
			func(ps partition.Spec, seed uint64) *partition.ShardedInput { return GnpShard(ps, 0.06, seed) }},
		{"directed-gnp", true,
			func(n int, seed uint64) *graph.Graph { return DirectedGnp(n, 0.04, seed) },
			func(ps partition.Spec, seed uint64) *partition.ShardedInput { return DirectedGnpShard(ps, 0.04, seed) }},
		{"gnm", false,
			func(n int, seed uint64) *graph.Graph { return Gnm(n, 3*n, seed) },
			func(ps partition.Spec, seed uint64) *partition.ShardedInput { return GnmShard(ps, 3*ps.N, seed) }},
		{"star", false,
			func(n int, seed uint64) *graph.Graph { return Star(n) },
			func(ps partition.Spec, seed uint64) *partition.ShardedInput {
				return sharded(ps, false, func(emit func(u, v int32)) { starStream(ps.N, emit) })
			}},
		{"path", false,
			func(n int, seed uint64) *graph.Graph { return Path(n) },
			func(ps partition.Spec, seed uint64) *partition.ShardedInput {
				return sharded(ps, false, func(emit func(u, v int32)) { pathStream(ps.N, emit) })
			}},
		{"cycle", false,
			func(n int, seed uint64) *graph.Graph { return Cycle(n) },
			func(ps partition.Spec, seed uint64) *partition.ShardedInput {
				return sharded(ps, false, func(emit func(u, v int32)) { cycleStream(ps.N, emit) })
			}},
		{"pref-attach", false,
			func(n int, seed uint64) *graph.Graph { return PreferentialAttachment(n, 3, seed) },
			func(ps partition.Spec, seed uint64) *partition.ShardedInput {
				return PreferentialAttachmentShard(ps, 3, seed)
			}},
	}
}

// countReplays wraps in's stream with a counter of how often it is
// replayed.
func countReplays(in *partition.ShardedInput) *int {
	calls := new(int)
	stream := in.Stream
	in.Stream = func(emit func(u, v int32)) error {
		*calls++
		return stream(emit)
	}
	return calls
}

// checkThreeWay asserts that the k one-pass shards of in, each
// MachineView(m) built alone, and the full graph agree row for row, that
// Views replays the stream exactly once, and that each MachineView(m)
// retains m's rows and nothing more.
func checkThreeWay(t *testing.T, label string, in *partition.ShardedInput, full *graph.Graph) {
	t.Helper()
	ps := in.Spec
	calls := countReplays(in)
	views, err := in.Views()
	if err != nil {
		t.Fatalf("%s: Views: %v", label, err)
	}
	if *calls != 1 {
		t.Fatalf("%s: Views replayed the stream %d times, want once", label, *calls)
	}
	if len(views) != ps.K {
		t.Fatalf("%s: Views returned %d views, want %d", label, len(views), ps.K)
	}
	covered := 0
	for m := 0; m < ps.K; m++ {
		*calls = 0
		mv, err := in.MachineView(core.MachineID(m))
		if err != nil {
			t.Fatalf("%s: MachineView(%d): %v", label, m, err)
		}
		if *calls != 1 {
			t.Fatalf("%s: MachineView(%d) replayed the stream %d times, want once", label, m, *calls)
		}
		one, alone := views[m].(*partition.LocalView), mv.(*partition.LocalView)
		for _, lv := range []*partition.LocalView{one, alone} {
			if lv.Self() != core.MachineID(m) || lv.K() != ps.K || lv.N() != ps.N {
				t.Fatalf("%s: shard %d identity (self=%d k=%d n=%d)", label, m, lv.Self(), lv.K(), lv.N())
			}
		}
		if !slices.Equal(one.Locals(), alone.Locals()) {
			t.Fatalf("%s: machine %d: one-pass and one-machine Locals differ", label, m)
		}
		arcs := 0
		for _, u := range one.Locals() {
			if ps.HomeOf(u) != core.MachineID(m) {
				t.Fatalf("%s: machine %d holds vertex %d homed at %d", label, m, u, ps.HomeOf(u))
			}
			wantOut, wantIn := full.Adj(int(u)), full.InAdj(int(u))
			for _, lv := range []*partition.LocalView{one, alone} {
				if got := lv.OutAdj(u); !slices.Equal(got, wantOut) {
					t.Fatalf("%s: machine %d: OutAdj(%d) = %v, full graph has %v", label, m, u, got, wantOut)
				}
				if got := lv.InAdj(u); !slices.Equal(got, wantIn) {
					t.Fatalf("%s: machine %d: InAdj(%d) = %v, full graph has %v", label, m, u, got, wantIn)
				}
				if lv.Degree(u) != full.Degree(int(u)) {
					t.Fatalf("%s: machine %d: Degree(%d) = %d, want %d", label, m, u, lv.Degree(u), full.Degree(int(u)))
				}
			}
			arcs += len(wantOut)
			if full.Directed() {
				arcs += len(wantIn)
			}
		}
		if alone.LocalArcs() != arcs {
			t.Fatalf("%s: MachineView(%d) retains %d arcs, its own rows have %d", label, m, alone.LocalArcs(), arcs)
		}
		covered += len(one.Locals())
	}
	if covered != ps.N {
		t.Fatalf("%s: shards cover %d vertices, want %d", label, covered, ps.N)
	}
}

// TestShardFullEquivalence is the tentpole property: for every
// generator family, the k shards built from one pass, each machine's
// shard built alone, and the full materialisation agree row for row,
// neighbour for neighbour, across machine counts and seeds. This is
// what makes the canonical stream the definition rather than a parallel
// implementation that could drift.
func TestShardFullEquivalence(t *testing.T) {
	const n = 150
	for _, fam := range shardFamilies() {
		for _, k := range []int{1, 2, 8} {
			for _, seed := range []uint64{1, 42} {
				ps := partition.Spec{N: n, K: k, Seed: seed + 1}
				in := fam.shard(ps, seed)
				if in.Directed != fam.directed {
					t.Fatalf("%s: sharded input directed=%v, want %v", fam.name, in.Directed, fam.directed)
				}
				checkThreeWay(t, fmt.Sprintf("%s k=%d seed=%d", fam.name, k, seed), in, fam.full(n, seed))
			}
		}
	}
}

// TestEdgeListShardEquivalence runs the three-way check on an edge list
// with duplicate lines, both orientations of one edge, and self-loops,
// read as an undirected graph and as a directed one.
func TestEdgeListShardEquivalence(t *testing.T) {
	const n = 40
	var sb strings.Builder
	sb.WriteString("# duplicates, both orientations, self-loops\n")
	for u := 0; u < n; u++ {
		fmt.Fprintf(&sb, "%d %d\n", u, (u*7+3)%n)
		fmt.Fprintf(&sb, "%d %d\n", (u*7+3)%n, u) // reverse orientation
		fmt.Fprintf(&sb, "%d %d\n", u, (u*7+3)%n) // duplicate line
		if u%5 == 0 {
			fmt.Fprintf(&sb, "%d %d\n", u, u) // self-loop
		}
		fmt.Fprintf(&sb, "%d\t%d # trailing comment\n", u, (u*u+1)%n)
	}
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, directed := range []bool{false, true} {
		full, err := ReadEdgeListGraph(path, n, directed)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 8} {
			in := EdgeListInput(path, partition.Spec{N: n, K: k, Seed: 5}, directed)
			checkThreeWay(t, fmt.Sprintf("edge list directed=%v k=%d", directed, k), in, full)
		}
	}
}

// TestGnpRowIsPureFunctionOfSeedAndRow pins the per-row formulation
// itself: a row's neighbours must not depend on which other rows were
// generated around it.
func TestGnpRowIsPureFunctionOfSeedAndRow(t *testing.T) {
	const n, p, seed = 100, 0.1, 7
	var a, b []int32
	gnpRow(n, p, seed, 40, func(v int32) { a = append(a, v) })
	for u := int32(0); u < int32(n)-1; u++ {
		u := u
		gnpRow(n, p, seed, u, func(v int32) {
			if u == 40 {
				b = append(b, v)
			}
		})
	}
	if !slices.Equal(a, b) {
		t.Fatalf("row 40 alone = %v, row 40 within full sweep = %v", a, b)
	}
}

// TestPreferentialAttachmentRunTwice is the regression for the map
// iteration order bug: two generations at one seed must agree edge for
// edge (the old code appended each vertex's chosen endpoints in Go map
// order, perturbing every later degree-proportional draw).
func TestPreferentialAttachmentRunTwice(t *testing.T) {
	for run := 0; run < 3; run++ {
		g1 := PreferentialAttachment(500, 3, 11)
		g2 := PreferentialAttachment(500, 3, 11)
		e1, e2 := g1.EdgeList(), g2.EdgeList()
		if !slices.Equal(flattenPairs(e1), flattenPairs(e2)) {
			t.Fatalf("run %d: PreferentialAttachment(500,3,11) differed between two generations", run)
		}
	}
}

func flattenPairs(es [][2]int32) []int32 {
	out := make([]int32, 0, 2*len(es))
	for _, e := range es {
		out = append(out, e[0], e[1])
	}
	return out
}

// TestGnmMatchesDrawOrderReference checks the alloc-light dedupe against
// a straightforward map-based reference of the canonical definition:
// the first m distinct pairs of the seed's candidate sequence.
func TestGnmMatchesDrawOrderReference(t *testing.T) {
	const n, m, seed = 80, 600, 5
	want := make([][2]int32, 0, m)
	seen := map[[2]int32]bool{}
	r := rng.New(seed)
	for len(want) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		pair := [2]int32{u, v}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		want = append(want, pair)
	}
	got := make([][2]int32, 0, m)
	gnmStream(n, m, seed, func(u, v int32) { got = append(got, [2]int32{u, v}) })
	if !slices.Equal(flattenPairs(got), flattenPairs(want)) {
		t.Fatalf("gnmStream disagrees with the map-based reference (got %d pairs, want %d)", len(got), len(want))
	}
}

func TestGnmNearCompleteGraph(t *testing.T) {
	// Coupon-collector regime: m close to C(n,2) forces many top-up
	// rounds.
	const n = 24
	maxM := n * (n - 1) / 2
	g := Gnm(n, maxM-1, 3)
	if g.M() != maxM-1 {
		t.Fatalf("Gnm(%d, %d) produced %d edges", n, maxM-1, g.M())
	}
}

func BenchmarkGnm(b *testing.B) {
	const n = 20000
	const m = 100000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Gnm(n, m, uint64(i)+1)
	}
}

// BenchmarkGnpShard times sharded G(n, p) setup at n=20000, k=8: one
// machine's shard (a kmnode -id process) and all k shards from one pass
// (an in-process cluster).
func BenchmarkGnpShard(b *testing.B) {
	in := GnpShard(partition.Spec{N: 20000, K: 8, Seed: 2}, 10.0/20000, 1)
	b.Run("one-machine", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := in.MachineView(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-k", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := in.Views(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
