package experiments

import (
	"fmt"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/transport"
)

// E19SubstrateMatrix enumerates the algorithm registry — not a
// hard-wired list — and runs every registered algorithm on all three
// substrates (in-process loopback, loopback TCP sockets, standalone
// node runtime), reporting measured rounds/words and whether Stats and
// output hashes agree bit-for-bit. It is the kmbench-visible form of
// the conversion results of Klauck et al. (arXiv:1311.6209): a
// k-machine computation's cost is substrate-independent, and the
// unified driver layer (internal/algo) makes that hold by construction.
func E19SubstrateMatrix(cfg Config) (Table, error) {
	t := Table{
		ID:     "E19",
		Title:  "substrate equivalence: every registered algorithm × {inmem, tcp, node}",
		Claim:  "k-machine computations are substrate-independent (Klauck et al. conversion, §1.1 model)",
		Header: []string{"algo", "k", "n", "rounds", "words", "tcp=inmem", "node=inmem"},
	}
	n := 400
	if cfg.Quick {
		n = 150
	}
	allAgree := true
	for _, entry := range algo.Entries() {
		prob := algo.Problem{N: n, K: 8, Seed: cfg.Seed + 191,
			Checkpoint: algo.CheckpointSpec{Every: cfg.CheckpointEvery, Dir: cfg.CheckpointDir}}
		switch entry.Name {
		case "pagerank":
			// The token walk is the longest workload; keep it modest.
			prob.N = n / 2
		case "conncomp":
			// Sparse, many components: keeps the label hash sensitive.
			prob.EdgeP = 2 / float64(n)
		}
		mem, err := entry.Run(prob, transport.InMem)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: inmem run failed: %v", entry.Name, err))
			allAgree = false
			continue
		}
		tcp, err := entry.Run(prob, transport.TCP)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: tcp run failed: %v", entry.Name, err))
			allAgree = false
			continue
		}
		node, err := entry.RunNodeLocal(prob)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: node run failed: %v", entry.Name, err))
			allAgree = false
			continue
		}
		tcpSame := sameOutcome(mem, tcp)
		nodeSame := sameOutcome(mem, node)
		allAgree = allAgree && tcpSame && nodeSame
		t.Rows = append(t.Rows, []string{
			entry.Name, itoa(prob.K), itoa(prob.N),
			i64(mem.Stats.Rounds), i64(mem.Stats.Words),
			fmt.Sprintf("%v", tcpSame), fmt.Sprintf("%v", nodeSame),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("bit-identical Stats and output hashes across all substrates: %v", allAgree))
	return t, nil
}

// sameOutcome reports whether two runs agree on the equivalence
// criteria: rounds, supersteps, messages, words, max received words,
// and the canonical output hash.
func sameOutcome(a, b *algo.Outcome) bool {
	return a.Stats.Rounds == b.Stats.Rounds &&
		a.Stats.Supersteps == b.Stats.Supersteps &&
		a.Stats.Messages == b.Stats.Messages &&
		a.Stats.Words == b.Stats.Words &&
		a.Stats.MaxRecvWords == b.Stats.MaxRecvWords &&
		a.Hash == b.Hash
}
