package algo

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/obs"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/transport/node"
)

// Problem is the standard seed-derived instance every registered
// algorithm runs on: the model's assumption that "the input is already
// partitioned when the computation starts" is realised by every process
// of a run rebuilding the identical graph, partition, and derived
// inputs from the shared seed — no input-distribution round is needed
// (cmd/kmnode relies on this, and so does the cross-substrate test
// suite).
type Problem struct {
	// N is the number of vertices (and, for dsort, keys; for routing,
	// messages per machine).
	N int
	// EdgeP is the G(n,p) edge probability; 0 means 10/N.
	EdgeP float64
	// K is the number of machines.
	K int
	// Seed derives everything: the graph (Seed), the vertex partition
	// (Seed+1), and the machine random streams (Seed+2) — the same
	// convention on every substrate.
	Seed uint64
	// Bandwidth is the per-link words/round; 0 means DefaultBandwidth(N).
	Bandwidth int
	// Eps is the PageRank reset probability; 0 means 0.15.
	Eps float64
	// Top bounds summary listings (top-ranked vertices etc.); 0 means 5.
	Top int
	// SuperstepTimeout bounds each superstep's cross-machine phases on
	// every substrate (core.Config.SuperstepTimeout /
	// node.Config.SuperstepTimeout): a crashed or wedged machine
	// surfaces as an attributed error within the timeout instead of
	// hanging the run. 0 means no deadline; the happy path is
	// unaffected either way.
	SuperstepTimeout time.Duration
	// Context cancels or deadlines the whole run on every substrate
	// (core.Config.Context / node.Config.Context) — the per-job deadline
	// hook of the job scheduler. nil means Background.
	Context context.Context
	// Recorder, when non-nil, receives wall-clock phase spans from the
	// run on every substrate (core.Config.Recorder /
	// node.Config.Recorder): compute, barrier-wait, and exchange per
	// superstep, plus per-peer frame spans on socket substrates. Spans
	// measure time only — Stats, outputs, and hashes are identical with
	// or without a recorder. nil (the default) records nothing.
	Recorder obs.Recorder
	// Sharded opts setup into partition-local input construction
	// (kmnode -sharded): each machine's View is a per-machine CSR shard
	// built from the generator's canonical per-row stream (or ingested
	// from InputPath), and no process materialises a global
	// *graph.Graph — per-process setup memory is O((n+m)/k) instead of
	// O(n+m). Stats, outputs, and hashes are bit-identical with it on or
	// off; only setup cost changes. Default off.
	Sharded bool
	// InputPath, when non-empty, reads the graph from an edge-list file
	// (gen.ScanEdgeList format, kmnode -input) instead of generating
	// G(N, EdgeP); N still declares the vertex-ID space and Seed still
	// drives the partition and machine streams. With Sharded set the
	// file is streamed straight into this machine's CSR shard.
	InputPath string
	// Checkpoint opts the run into per-superstep checkpointing and
	// failure recovery on every substrate (core.Config.Checkpoint /
	// node.Config.Checkpoint). Off by default — the zero value keeps
	// today's fail-fast behaviour, hashes, and Stats bit-identical.
	Checkpoint CheckpointSpec
}

// CheckpointSpec is the substrate-agnostic checkpoint policy of a
// Problem. Both runtimes take the same cut and store the same blobs in
// a core.CheckpointSink: the in-process cluster restores from it when
// a machine dies mid-run (in-run replacement, bounded by
// MaxRecoveries); the node runtime restores from it at start when
// Resume is set, which is how the job scheduler re-runs a job after a
// mesh rebuild. The machines of the algorithm must implement
// core.Snapshotter (all registry algorithms do).
type CheckpointSpec struct {
	// Every captures machine state every Every supersteps; 0 disables
	// checkpointing entirely.
	Every int
	// Dir, when non-empty, persists checkpoints to disk: the sink is a
	// core.FileSink writing ckpt-*.kmcp files there.
	Dir string
	// Sink overrides the checkpoint sink (wins over Dir). The job
	// scheduler owns one per opted-in job so checkpoints survive mesh
	// rebuilds; tests and experiments use it to inspect checkpoint
	// traffic (core.MemorySink counts puts and bytes). nil with no Dir
	// means an in-memory ring private to the run.
	Sink core.CheckpointSink
	// MaxRecoveries caps in-run machine replacements on the in-process
	// cluster; 0 means core.DefaultMaxRecoveries.
	MaxRecoveries int
	// Resume makes a node-runtime run restore the sink's latest
	// checkpoint before its first superstep — the re-attempt half of
	// the scheduler's recovery protocol. The in-process cluster only
	// ever restores mid-run and ignores it.
	Resume bool
}

// sink resolves Sink and Dir; nil means the runner's private default.
func (ck CheckpointSpec) sink() core.CheckpointSink {
	if ck.Sink == nil && ck.Dir != "" {
		return core.NewFileSink(ck.Dir)
	}
	return ck.Sink
}

// withDefaults resolves the zero-value conventions.
func (prob Problem) withDefaults() Problem {
	if prob.EdgeP == 0 {
		prob.EdgeP = 10 / float64(prob.N)
	}
	if prob.Bandwidth == 0 {
		prob.Bandwidth = core.DefaultBandwidth(prob.N)
	}
	if prob.Eps == 0 {
		prob.Eps = 0.15
	}
	if prob.Top == 0 {
		prob.Top = 5
	}
	return prob
}

// nodeConfig is the node-runtime configuration of a problem — the same
// Seed+2 machine-stream convention as coreConfig, for the substrates
// built on transport/node (RunNodeLocal, RunJob).
func (prob Problem) nodeConfig(k int) node.Config {
	return node.Config{K: k, Bandwidth: prob.Bandwidth, Seed: prob.Seed + 2,
		SuperstepTimeout: prob.SuperstepTimeout, Context: prob.Context,
		Recorder: prob.Recorder,
		Checkpoint: node.CheckpointConfig{Every: prob.Checkpoint.Every,
			Sink: prob.Checkpoint.sink(), Resume: prob.Checkpoint.Resume}}
}

// coreConfig is the in-process cluster configuration of a problem: the
// machine streams draw from Seed+2 on every substrate.
func (prob Problem) coreConfig(kind transport.Kind) core.Config {
	cfg := core.Config{K: prob.K, Bandwidth: prob.Bandwidth, Seed: prob.Seed + 2,
		Transport: kind, SuperstepTimeout: prob.SuperstepTimeout, Context: prob.Context,
		Recorder: prob.Recorder}
	if ck := prob.Checkpoint; ck.Every > 0 {
		sink := ck.sink()
		if sink == nil {
			sink = core.NewMemorySink(2)
		}
		cfg.Checkpoint = core.CheckpointPolicy{Every: ck.Every, Sink: sink,
			MaxRecoveries: ck.MaxRecoveries}
	}
	return cfg
}

// Outcome is the substrate-agnostic report of one registry run.
type Outcome struct {
	// Algo is the registered name.
	Algo string
	// Stats is the measured communication profile. For standalone runs
	// it is the cluster-wide Stats, which every node folds from its
	// peers' frame reports.
	Stats *core.Stats
	// Wire is the substrate's physical bytes-on-wire (zero for the
	// loopback, which ships none). Stats are bit-identical across
	// substrates; Wire is precisely the part that is not.
	Wire transport.WireStats
	// Hash is the canonical FNV-1a hash of the merged output — the
	// quantity the cross-substrate equivalence suite compares. Zero for
	// standalone single-machine runs, which only hold a share of the
	// output.
	Hash uint64
	// Summary holds human-readable result lines (kmnode prints them).
	Summary []string
	// SetupTime is input-construction wall-clock: Spec.Build (generation
	// or full-graph ingest) plus every MachineView call (which is where
	// shard generation/ingest happens for sharded inputs).
	SetupTime time.Duration
	// ExecTime is the remaining driver wall-clock: machine construction,
	// supersteps, and output merge. Splitting it from SetupTime keeps
	// O(n+m) build cost out of transport comparisons.
	ExecTime time.Duration
}

// Spec binds an Algorithm descriptor to the standard Problem instance,
// with the output hashing and summarising the erased registry needs.
type Spec[M, L, O any] struct {
	// Name keys the registry ("pagerank", "triangle", ...).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Build derives the descriptor and its partitioned input from the
	// problem — a materialised *partition.VertexPartition, or a
	// *partition.ShardedInput when prob.Sharded is set (the GnpInput /
	// EdgelessInput helpers resolve the choice). It must be
	// deterministic in prob: every process of a distributed run calls it
	// with identical arguments.
	Build func(prob Problem) (Algorithm[M, L, O], partition.Input, error)
	// Hash canonically hashes the merged output (order-independent of
	// machine layout, dependent on every output bit).
	Hash func(o O) uint64
	// Summarize renders the merged output; top bounds listings.
	Summarize func(o O, top int) []string
	// SummarizeLocal renders one machine's local output (standalone
	// kmnode, which never sees the merged result).
	SummarizeLocal func(l L, top int) []string
}

// Entry is the type-erased registry row: the three substrate runners of
// one registered algorithm, enumerable without knowing its generic
// types.
type Entry struct {
	// Name and Doc mirror the Spec.
	Name string
	Doc  string

	run           func(prob Problem, kind transport.Kind) (*Outcome, error)
	runNodeLocal  func(prob Problem) (*Outcome, error)
	runStandalone func(prob Problem, ncfg node.Config) (*Outcome, error)
	runJob        func(prob Problem, lm *node.LocalMesh, job uint64) (*Outcome, error)
}

// Run executes the algorithm on an in-process cluster over the given
// transport kind (loopback or TCP sockets).
func (e *Entry) Run(prob Problem, kind transport.Kind) (*Outcome, error) {
	return e.run(prob, kind)
}

// RunNodeLocal executes the algorithm over the standalone node runtime,
// all k machines in this process on loopback TCP (kmnode -local).
func (e *Entry) RunNodeLocal(prob Problem) (*Outcome, error) {
	return e.runNodeLocal(prob)
}

// RunStandalone executes ONE machine of the algorithm's cluster in this
// process; peers live in other processes (kmnode -id). The outcome
// carries the machine-local summary and the cluster-wide Stats.
func (e *Entry) RunStandalone(prob Problem, ncfg node.Config) (*Outcome, error) {
	return e.runStandalone(prob, ncfg)
}

// RunJob executes the algorithm as job `job` on a standing mesh
// (node.RunJobLocal): the resident-daemon path, where the fabric
// outlives individual jobs. Stats, outputs, and hashes are bit-identical
// to RunNodeLocal on the same Problem. On error the mesh is poisoned
// and the scheduler must rebuild it.
func (e *Entry) RunJob(prob Problem, lm *node.LocalMesh, job uint64) (*Outcome, error) {
	return e.runJob(prob, lm, job)
}

// Submit runs any registered algorithm by name as one job on a standing
// mesh — the type-erased entry point of the job scheduler: no generic
// instantiation at the call site, so a daemon can execute a mixed
// stream of algorithms on one fabric.
func Submit(name string, prob Problem, lm *node.LocalMesh, job uint64) (*Outcome, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q", name)
	}
	return e.RunJob(prob, lm, job)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]*Entry{}
)

// Register installs a Spec in the name-keyed registry. Algorithm
// packages call it from init(); importing kmachine/internal/algo/all
// (or any of the packages directly) populates the table. Duplicate
// names panic — they indicate two packages claiming one identity.
func Register[M, L, O any](s Spec[M, L, O]) {
	if s.Name == "" || s.Build == nil || s.Hash == nil {
		panic("algo: Register needs Name, Build, and Hash")
	}
	e := &Entry{
		Name: s.Name,
		Doc:  s.Doc,
		run: func(prob Problem, kind transport.Kind) (*Outcome, error) {
			prob = prob.withDefaults()
			t0 := time.Now()
			a, in, err := s.Build(prob)
			if err != nil {
				return nil, err
			}
			buildD := time.Since(t0)
			ti := &timedInput{in: in}
			t1 := time.Now()
			out, stats, w, err := RunWire(a, ti, prob.coreConfig(kind))
			if err != nil {
				return nil, err
			}
			total := time.Since(t1)
			o := s.outcome(out, stats, prob)
			o.Wire = w
			o.SetupTime = buildD + ti.viewTime
			o.ExecTime = total - ti.viewTime
			return o, nil
		},
		runNodeLocal: func(prob Problem) (*Outcome, error) {
			prob = prob.withDefaults()
			t0 := time.Now()
			a, in, err := s.Build(prob)
			if err != nil {
				return nil, err
			}
			buildD := time.Since(t0)
			ncfg := prob.nodeConfig(in.NumMachines())
			ti := &timedInput{in: in}
			t1 := time.Now()
			out, stats, err := NodeRunLocal(a, ti, ncfg)
			if err != nil {
				return nil, err
			}
			total := time.Since(t1)
			o := s.outcome(out, stats, prob)
			o.SetupTime = buildD + ti.viewTime
			o.ExecTime = total - ti.viewTime
			return o, nil
		},
		runJob: func(prob Problem, lm *node.LocalMesh, job uint64) (*Outcome, error) {
			prob = prob.withDefaults()
			t0 := time.Now()
			a, in, err := s.Build(prob)
			if err != nil {
				return nil, err
			}
			buildD := time.Since(t0)
			ncfg := prob.nodeConfig(in.NumMachines())
			ti := &timedInput{in: in}
			t1 := time.Now()
			out, stats, err := NodeRunJob(a, ti, lm, ncfg, job)
			if err != nil {
				return nil, err
			}
			total := time.Since(t1)
			o := s.outcome(out, stats, prob)
			o.SetupTime = buildD + ti.viewTime
			o.ExecTime = total - ti.viewTime
			return o, nil
		},
		runStandalone: func(prob Problem, ncfg node.Config) (*Outcome, error) {
			prob = prob.withDefaults()
			t0 := time.Now()
			a, in, err := s.Build(prob)
			if err != nil {
				return nil, err
			}
			buildD := time.Since(t0)
			ncfg.K = in.NumMachines()
			ncfg.Bandwidth = prob.Bandwidth
			ncfg.Seed = prob.Seed + 2
			if ncfg.SuperstepTimeout == 0 {
				ncfg.SuperstepTimeout = prob.SuperstepTimeout
			}
			if ncfg.Context == nil {
				ncfg.Context = prob.Context
			}
			if ncfg.Recorder == nil {
				ncfg.Recorder = prob.Recorder
			}
			if ncfg.Checkpoint.Every == 0 {
				// Carried through so node.Run rejects it explicitly
				// rather than the run silently not checkpointing.
				ncfg.Checkpoint = prob.nodeConfig(ncfg.K).Checkpoint
			}
			ti := &timedInput{in: in}
			t1 := time.Now()
			local, stats, err := NodeRun(a, ti, ncfg)
			if err != nil {
				return nil, err
			}
			total := time.Since(t1)
			o := &Outcome{Algo: s.Name, Stats: stats,
				SetupTime: buildD + ti.viewTime, ExecTime: total - ti.viewTime}
			if s.SummarizeLocal != nil {
				o.Summary = s.SummarizeLocal(local, prob.Top)
			}
			return o, nil
		},
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("algo: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = e
}

func (s Spec[M, L, O]) outcome(out O, stats *core.Stats, prob Problem) *Outcome {
	o := &Outcome{Algo: s.Name, Stats: stats, Hash: s.Hash(out)}
	if s.Summarize != nil {
		o.Summary = s.Summarize(out, prob.Top)
	}
	return o
}

// Lookup returns the entry registered under name.
func Lookup(name string) (*Entry, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Entries returns the registered entries in Names() order.
func Entries() []*Entry {
	names := Names()
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]*Entry, 0, len(names))
	for _, n := range names {
		if e, ok := registry[n]; ok {
			out = append(out, e)
		}
	}
	return out
}

// Hash64 accumulates a canonical FNV-1a hash over a stream of 64-bit
// words — the shared output-hash primitive of the registry Specs, so
// every algorithm's hash is comparable across substrates and runs.
type Hash64 struct{ sum uint64 }

// NewHash64 returns a hasher at the FNV-1a offset basis.
func NewHash64() *Hash64 { return &Hash64{sum: 14695981039346656037} }

// Add folds one 64-bit word, little-endian byte order.
func (h *Hash64) Add(x uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h.sum ^= uint64(byte(x >> (8 * i)))
		h.sum *= prime
	}
}

// Sum returns the accumulated hash.
func (h *Hash64) Sum() uint64 { return h.sum }
