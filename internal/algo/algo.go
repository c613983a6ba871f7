// Package algo is the unified algorithm driver of the k-machine
// simulator: one descriptor type and one execution path shared by every
// distributed algorithm in the repository.
//
// The paper's model (§1.1) is a single substrate — k machines, pairwise
// links, bandwidth-charged rounds — and the conversion theorems it
// builds on (Klauck et al., arXiv:1311.6209) are precisely about the
// substrate-independence of k-machine computations. This package makes
// that independence structural: an algorithm is described ONCE as an
// Algorithm value (name, wire codec, per-machine factory from a
// partition.View, local-output extraction, cross-machine merge) and the
// generic driver runs it on any substrate —
//
//   - Run / Exec: the in-process cluster (core.Cluster) over any
//     transport.Kind (loopback or real TCP sockets);
//   - NodeRunLocal: the standalone node runtime (transport/node), every
//     machine with its own listener+dialer over loopback TCP in one
//     process (cmd/kmnode -local);
//   - NodeRun: ONE machine of a multi-process cluster (cmd/kmnode -id),
//     peers living in other processes.
//
// All cost accounting happens in core before envelopes reach a
// transport, so a descriptor's Stats and outputs are bit-identical on
// every substrate — the registry test suite asserts exactly that for
// every registered algorithm.
//
// The registry half of the package (registry.go) erases the generic
// types behind a name-keyed Entry table so CLIs and table-driven tests
// can enumerate algorithms without knowing their message types.
package algo

import (
	"fmt"

	"kmachine/internal/core"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/transport/node"
	"kmachine/internal/transport/wire"
)

// Machine is one participant of a distributed algorithm: a core.Machine
// that can additionally report its share of the output after the run.
// M is the envelope payload type, L the machine-local output type.
type Machine[M, L any] interface {
	core.Machine[M]
	// Output returns this machine's share of the result. It is called
	// once, after the run completes; the returned value may alias
	// machine state.
	Output() L
}

// Algorithm describes one distributed algorithm to the generic driver.
// M is the envelope payload, L the machine-local output, O the merged
// cluster-wide output.
type Algorithm[M, L, O any] struct {
	// Name identifies the algorithm in errors and registry listings.
	Name string
	// Codec serialises envelope payloads for substrates that cross
	// process or socket boundaries (transport/tcp, transport/node); the
	// in-memory loopback ignores it.
	Codec wire.Codec[M]
	// NewMachine builds machine view.Self()'s state. Every substrate
	// calls it the same way, so a machine's behaviour cannot depend on
	// where it runs — nor on whether the view is a window onto a
	// materialised graph (partition.GraphView) or a partition-local CSR
	// shard (partition.LocalView).
	NewMachine func(view partition.View) (Machine[M, L], error)
	// Merge folds the k machine-local outputs (in machine-ID order)
	// into the cluster-wide output.
	Merge func(locals []L) O
}

// Run executes the algorithm over the partitioned input on an
// in-process cluster, resolving cfg.Transport with the descriptor's
// codec. It returns the merged output and the measured Stats. The input
// may be a materialised *partition.VertexPartition or a
// *partition.ShardedInput, whose k per-machine CSRs are built from one
// pass over its stream.
func Run[M, L, O any](a Algorithm[M, L, O], in partition.Input, cfg core.Config) (O, *core.Stats, error) {
	out, stats, _, err := RunWire(a, in, cfg)
	return out, stats, err
}

// RunWire is Run additionally reporting the substrate's physical
// bytes-on-wire (zero for the loopback): the paper-level Stats describe
// the model's words, the WireStats what the sockets actually carried.
func RunWire[M, L, O any](a Algorithm[M, L, O], in partition.Input, cfg core.Config) (O, *core.Stats, transport.WireStats, error) {
	var zero O
	if cfg.K != in.NumMachines() {
		return zero, nil, transport.WireStats{}, fmt.Errorf("%s: cluster k=%d but partition k=%d", a.Name, cfg.K, in.NumMachines())
	}
	machines, err := newMachines(a, in)
	if err != nil {
		return zero, nil, transport.WireStats{}, err
	}
	return ExecWire(cfg, a.Codec, func(id core.MachineID) (Machine[M, L], error) {
		return machines[id], nil
	}, a.Merge)
}

// Exec is the substrate-owning driver tail shared by every algorithm's
// Run function: build the k machines (in machine-ID order, exactly like
// core.NewCluster's factory contract), resolve cfg.Transport, run to
// quiescence, then extract and merge the machine-local outputs. It
// exists separately from Run for algorithms whose input is not a vertex
// partition (dsort's key lists, routing's synthetic workloads).
func Exec[M, L, O any](cfg core.Config, codec wire.Codec[M], build func(core.MachineID) (Machine[M, L], error), merge func([]L) O) (O, *core.Stats, error) {
	out, stats, _, err := ExecWire(cfg, codec, build, merge)
	return out, stats, err
}

// ExecWire is Exec additionally reporting the substrate's physical
// bytes-on-wire alongside the paper-level Stats.
func ExecWire[M, L, O any](cfg core.Config, codec wire.Codec[M], build func(core.MachineID) (Machine[M, L], error), merge func([]L) O) (O, *core.Stats, transport.WireStats, error) {
	var zero O
	machines, err := buildMachines(cfg.K, build)
	if err != nil {
		return zero, nil, transport.WireStats{}, err
	}
	cluster := core.NewCluster(cfg, func(id core.MachineID) core.Machine[M] {
		return machines[id]
	})
	stats, w, err := core.RunOverWire(cluster, codec)
	if err != nil {
		return zero, nil, w, err
	}
	return mergeOutputs(machines, merge), stats, w, nil
}

// NodeRunLocal executes the algorithm over the standalone node runtime:
// the full k-machine cluster in this process, every machine with its
// own listener and dialer on loopback TCP and the superstep protocol of
// transport/node, in which every machine decides termination itself
// (cmd/kmnode -local). Outputs and
// Stats are bit-identical to Run on the same inputs. ncfg is the
// per-machine Config template of node.RunLocal (ID/addresses ignored);
// its K must match the partition's, and its Context/SuperstepTimeout
// knobs bound the run exactly as they do standalone.
func NodeRunLocal[M, L, O any](a Algorithm[M, L, O], in partition.Input, ncfg node.Config) (O, *core.Stats, error) {
	var zero O
	if ncfg.K != in.NumMachines() {
		return zero, nil, fmt.Errorf("%s: node cluster k=%d but partition k=%d", a.Name, ncfg.K, in.NumMachines())
	}
	machines, err := newMachines(a, in)
	if err != nil {
		return zero, nil, err
	}
	stats, err := node.RunLocal(ncfg, a.Codec, func(id core.MachineID) core.Machine[M] {
		return machines[id]
	})
	if err != nil {
		return zero, nil, err
	}
	return mergeOutputs(machines, a.Merge), stats, nil
}

// NodeRunJob executes the algorithm as one job on a standing mesh
// (node.RunJobLocal): the resident-daemon substrate, where the socket
// fabric outlives individual jobs and each job attaches fresh typed
// endpoints framing its traffic with the job ID. Outputs and Stats are
// bit-identical to NodeRunLocal on the same inputs; only the mesh
// lifetime differs. On error the mesh is poisoned and must be rebuilt.
func NodeRunJob[M, L, O any](a Algorithm[M, L, O], in partition.Input, lm *node.LocalMesh, ncfg node.Config, job uint64) (O, *core.Stats, error) {
	var zero O
	if ncfg.K != in.NumMachines() {
		return zero, nil, fmt.Errorf("%s: node cluster k=%d but partition k=%d", a.Name, ncfg.K, in.NumMachines())
	}
	machines, err := newMachines(a, in)
	if err != nil {
		return zero, nil, err
	}
	stats, err := node.RunJobLocal(lm, ncfg, job, a.Codec, func(id core.MachineID) core.Machine[M] {
		return machines[id]
	})
	if err != nil {
		return zero, nil, err
	}
	return mergeOutputs(machines, a.Merge), stats, nil
}

// NodeRun executes ONE machine of the algorithm's cluster in this
// process (cmd/kmnode -id); the peers live in other processes and are
// reached through ncfg. It returns the machine-local output — every
// process of the run reconstructs the same partition from the shared
// seed, and the union of the k local outputs is the Run output. With a
// sharded input this is where the O((n+m)/k) per-process setup win
// lands: MachineView builds only this machine's rows.
func NodeRun[M, L, O any](a Algorithm[M, L, O], in partition.Input, ncfg node.Config) (L, *core.Stats, error) {
	var zero L
	v, err := in.MachineView(core.MachineID(ncfg.ID))
	if err != nil {
		return zero, nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	m, err := a.NewMachine(v)
	if err != nil {
		return zero, nil, err
	}
	stats, err := node.Run(ncfg, m, a.Codec)
	if err != nil {
		return zero, nil, err
	}
	return m.Output(), stats, nil
}

// newMachines builds the k machines of a from the input's k views, which
// a sharded input builds from one pass over its stream.
func newMachines[M, L, O any](a Algorithm[M, L, O], in partition.Input) ([]Machine[M, L], error) {
	views, err := in.Views()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return buildMachines(len(views), func(id core.MachineID) (Machine[M, L], error) {
		return a.NewMachine(views[id])
	})
}

// buildMachines constructs the k machines sequentially in machine-ID
// order — the shared construction contract of every substrate, and the
// reason a factory error can surface before any cluster is built.
func buildMachines[M, L any](k int, build func(core.MachineID) (Machine[M, L], error)) ([]Machine[M, L], error) {
	machines := make([]Machine[M, L], k)
	for i := 0; i < k; i++ {
		m, err := build(core.MachineID(i))
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	return machines, nil
}

// mergeOutputs extracts the machine-local outputs in machine-ID order
// and folds them.
func mergeOutputs[M, L, O any](machines []Machine[M, L], merge func([]L) O) O {
	locals := make([]L, len(machines))
	for i, m := range machines {
		locals[i] = m.Output()
	}
	return merge(locals)
}
