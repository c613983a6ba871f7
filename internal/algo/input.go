// Problem-input resolution: the shared helpers every Spec.Build uses to
// honour Problem.Sharded and Problem.InputPath, plus the timing wrapper
// that charges input construction to Outcome.SetupTime wherever it
// happens (Spec.Build for materialised inputs, Views or MachineView for
// sharded ones).
package algo

import (
	"time"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// PartitionSpec is the problem's unmaterialised partition: the registry
// convention seeds the vertex partition at Seed+1 on every substrate.
func (prob Problem) PartitionSpec() partition.Spec {
	return partition.Spec{N: prob.N, K: prob.K, Seed: prob.Seed + 1}
}

// GnpInput resolves the standard graph input of a problem — G(N, EdgeP)
// at Seed, or the edge list at InputPath — as a materialised
// VertexPartition or, when prob.Sharded, a stream-backed shard input.
// All four paths produce bit-identical adjacency for each machine.
func GnpInput(prob Problem) (partition.Input, error) {
	spec := prob.PartitionSpec()
	if prob.InputPath != "" {
		if prob.Sharded {
			return gen.EdgeListInput(prob.InputPath, spec, false), nil
		}
		g, err := gen.ReadEdgeListGraph(prob.InputPath, prob.N, false)
		if err != nil {
			return nil, err
		}
		return partition.NewRVP(g, prob.K, spec.Seed), nil
	}
	if prob.Sharded {
		return gen.GnpShard(spec, prob.EdgeP, prob.Seed), nil
	}
	return partition.NewRVP(gen.Gnp(prob.N, prob.EdgeP, prob.Seed), prob.K, spec.Seed), nil
}

// EdgelessInput resolves the input of problems that carry no graph
// (dsort's keys, routing's synthetic workloads): the partition alone.
func EdgelessInput(prob Problem) partition.Input {
	if prob.Sharded {
		return gen.EdgelessInput(prob.PartitionSpec())
	}
	return partition.NewRVP(graph.NewBuilder(prob.N, false).Build(), prob.K, prob.Seed+1)
}

// timedInput wraps an Input and accumulates the wall-clock spent inside
// MachineView and Views, so the registry can report setup separately
// from supersteps regardless of where the input is actually built.
type timedInput struct {
	in       partition.Input
	viewTime time.Duration
}

func (t *timedInput) NumMachines() int { return t.in.NumMachines() }

func (t *timedInput) MachineView(m core.MachineID) (partition.View, error) {
	t0 := time.Now()
	v, err := t.in.MachineView(m)
	t.viewTime += time.Since(t0)
	return v, err
}

func (t *timedInput) Views() ([]partition.View, error) {
	t0 := time.Now()
	vs, err := t.in.Views()
	t.viewTime += time.Since(t0)
	return vs, err
}
