package kmachine_test

// Sharded-input equivalence suite: the partition-local setup path
// (Problem.Sharded, Problem.InputPath) must be invisible to the
// algorithms. For every registry entry, a run whose machines build
// their own CSR shards — by replaying the generator's per-row canonical
// stream, or by ingesting an edge-list file — must produce bit-identical
// Stats and output hashes to the run that materialises the whole graph
// and carves views out of it. This is the executable form of the
// paper's input assumption (§1.1): the vertices are distributed by the
// random hash partition *before* the computation starts, and nothing
// downstream can tell how they got there.

import (
	"fmt"
	"testing"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/transport"
)

// TestRegistryShardedEquivalence is the feature-contract matrix: every
// algorithm × {inmem, tcp, node runtime} × {checkpoint off, every 2
// supersteps} × {full, sharded input}, each run compared on Stats and
// output hash with the plain full-input inmem run. The node runtime is
// where sharding's per-process memory win actually lands (each node
// process builds only its own shard); the checkpoint arms prove that
// arming the capture path perturbs nothing on any substrate or setup
// path.
func TestRegistryShardedEquivalence(t *testing.T) {
	substrates := []struct {
		name string
		run  func(*algo.Entry, algo.Problem) (*algo.Outcome, error)
	}{
		{"inmem", func(e *algo.Entry, p algo.Problem) (*algo.Outcome, error) { return e.Run(p, transport.InMem) }},
		{"tcp", func(e *algo.Entry, p algo.Problem) (*algo.Outcome, error) { return e.Run(p, transport.TCP) }},
		{"node", (*algo.Entry).RunNodeLocal},
	}
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			entry, ok := algo.Lookup(name)
			if !ok {
				t.Fatalf("registry lost %q between Names and Lookup", name)
			}
			prob := suiteProblem(name)

			ref, err := entry.Run(prob, transport.InMem)
			if err != nil {
				t.Fatalf("plain inmem run: %v", err)
			}
			if ref.Hash == 0 {
				t.Fatalf("plain inmem run produced zero output hash — comparison would be vacuous")
			}
			for _, sub := range substrates {
				for _, every := range []int{0, 2} {
					for _, sharded := range []bool{false, true} {
						if sub.name == "inmem" && every == 0 && !sharded {
							continue // the reference run itself
						}
						input := "full"
						if sharded {
							input = "sharded"
						}
						t.Run(fmt.Sprintf("%s/ckpt=%d/%s", sub.name, every, input), func(t *testing.T) {
							p := prob
							p.Sharded = sharded
							p.Checkpoint = algo.CheckpointSpec{Every: every}
							got, err := sub.run(entry, p)
							if err != nil {
								t.Fatalf("run: %v", err)
							}
							sameStats(t, "vs-plain-inmem", got.Stats, ref.Stats)
							if got.Hash != ref.Hash {
								t.Errorf("output hash %016x, plain inmem %016x", got.Hash, ref.Hash)
							}
						})
					}
				}
			}
		})
	}
}

// TestRegistryEdgeListEquivalence feeds the checked-in sample edge list
// (generated from Gnp(300, 0.03, 9)) to the graph-input algorithms
// through both file paths — whole-file materialisation and per-machine
// streaming ingest — and requires both to match the generator run that
// produced the file. Covers the full 2×2 of {generated, file} ×
// {materialised, sharded}.
func TestRegistryEdgeListEquivalence(t *testing.T) {
	base := algo.Problem{N: 300, EdgeP: 0.03, K: 8, Seed: 9}
	for _, name := range []string{"pagerank", "triangle", "conncomp"} {
		t.Run(name, func(t *testing.T) {
			entry, ok := algo.Lookup(name)
			if !ok {
				t.Fatalf("registry has no %q", name)
			}
			gen, err := entry.Run(base, transport.InMem)
			if err != nil {
				t.Fatalf("generator run: %v", err)
			}

			fromFile := base
			fromFile.InputPath = "testdata/sample_edges.txt"
			file, err := entry.Run(fromFile, transport.InMem)
			if err != nil {
				t.Fatalf("file run: %v", err)
			}
			sameStats(t, "file-vs-generator", file.Stats, gen.Stats)
			if file.Hash != gen.Hash {
				t.Errorf("output hash from file %016x, from generator %016x", file.Hash, gen.Hash)
			}

			ingested := fromFile
			ingested.Sharded = true
			ing, err := entry.Run(ingested, transport.InMem)
			if err != nil {
				t.Fatalf("sharded ingest run: %v", err)
			}
			sameStats(t, "ingest-vs-generator", ing.Stats, gen.Stats)
			if ing.Hash != gen.Hash {
				t.Errorf("output hash from sharded ingest %016x, from generator %016x", ing.Hash, gen.Hash)
			}
			if ing.SetupTime <= 0 {
				t.Errorf("sharded ingest run recorded no SetupTime")
			}
			if ing.ExecTime <= 0 {
				t.Errorf("sharded ingest run recorded no ExecTime")
			}
		})
	}
}
