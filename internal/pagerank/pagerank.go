// Package pagerank implements the paper's distributed PageRank
// computation (§3.1) in the k-machine model.
//
// The algorithm is the Monte-Carlo token process of Das Sarma et al.
// [20]: every vertex starts c·log n tokens; in each of Θ(log n / eps)
// iterations a token terminates with probability eps and otherwise moves
// to a uniformly random out-neighbour; psi(v) counts all tokens that ever
// visit v and eps·psi(v)/(n·c·log n) is whp a δ-approximation of
// PageRank(v).
//
// The paper's contribution (Algorithm 1, Theorem 4) is how to route the
// token movements in Õ(n/k²) rounds instead of the Õ(n/k) obtained by
// mechanically converting the CONGEST algorithm (Klauck et al. [33]):
//
//  1. per-destination aggregation — a machine merges all tokens its
//     vertices send to the same destination vertex v into one count
//     message ⟨α[v], dest:v⟩ (light path);
//  2. heavy vertices — a vertex holding ≥ k tokens samples, per token, a
//     destination *machine* j with probability n_{j,u}/d_u and sends one
//     count message ⟨β[j], src:u⟩ per machine; the receiver forwards each
//     counted token to a uniformly random locally-hosted neighbour of u.
//     This caps a heavy vertex's traffic at k-1 messages per iteration;
//  3. random routing — light messages travel via a uniformly random
//     intermediate machine (Valiant two-hop, Lemma 13), so no single link
//     serialises.
//
// Options exposes each mechanism as a toggle: disabling all three yields
// exactly the conversion-style baseline the paper improves upon, and the
// individual toggles drive the E14 ablation experiments.
package pagerank

import (
	"fmt"
	"math"
	"slices"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
	"kmachine/internal/routing"
)

// Options configures a distributed PageRank run.
type Options struct {
	// Eps is the reset probability (must be in (0,1)).
	Eps float64
	// Tokens is the number of tokens each vertex starts with. 0 means
	// ceil(C·log2(n+1)) with C = 8, the paper's c·log n.
	Tokens int
	// Iterations is the number of random-walk steps. 0 means
	// ceil(3·ln(n·Tokens+1)/Eps), enough for all tokens to die whp.
	Iterations int
	// Aggregate enables per-destination-vertex aggregation (paper's α).
	Aggregate bool
	// HeavyPath enables the ≥k-token machine-level path (paper's β).
	HeavyPath bool
	// TwoHop routes light messages via random intermediates (Lemma 13).
	TwoHop bool
}

// AlgorithmOne returns the paper's Algorithm 1 configuration.
func AlgorithmOne(eps float64) Options {
	return Options{Eps: eps, Aggregate: true, HeavyPath: true, TwoHop: true}
}

// ConversionBaseline returns the Õ(n/k) baseline of Klauck et al. [33]:
// a direct simulation of the CONGEST token algorithm with per-edge
// messages, no heavy-vertex handling and direct routing.
func ConversionBaseline(eps float64) Options {
	return Options{Eps: eps}
}

// ApplyDefaults fills Tokens and Iterations with the paper's defaults
// for an n-vertex input. Every machine of a run must use the same
// resolved Options — standalone nodes (cmd/kmnode) call this before
// NewNodeMachine, and Run calls it for the in-process cluster.
func (o *Options) ApplyDefaults(n int) {
	if o.Tokens == 0 {
		o.Tokens = int(math.Ceil(8 * math.Log2(float64(n)+1)))
	}
	if o.Iterations == 0 {
		o.Iterations = int(math.Ceil(3 * math.Log(float64(n)*float64(o.Tokens)+1) / o.Eps))
	}
}

// Result is the outcome of a distributed PageRank computation.
type Result struct {
	// Estimate[v] is the PageRank estimate output by v's home machine.
	Estimate []float64
	// Psi[v] is the raw visit count behind the estimate.
	Psi []int64
	// OutputsPerMachine[i] counts the (vertex, value) pairs machine i
	// output — the quantity the lower-bound argument (Lemma 6) tracks.
	OutputsPerMachine []int
	// Stats is the measured communication profile.
	Stats *core.Stats
	// Iterations actually executed.
	Iterations int
	// TokensPerVertex actually used.
	TokensPerVertex int
}

// msg is the wire format. Light messages carry a destination vertex and
// a token count; heavy messages carry a source vertex and a token count.
type msg struct {
	Kind  uint8 // kindLight or kindHeavy
	V     int32
	Count int64
}

const (
	kindLight = iota
	kindHeavy
)

const msgWords = 2 // vertex ID + count, each one Θ(log n)-bit word

type machine struct {
	view partition.View
	opts Options

	// tokens/psi are dense over the global vertex space (nonzero only at
	// local vertices): O(n) per machine instead of a map's O(n/k), but
	// the hot loops touch them once per token and the simulation already
	// holds dense O(n) partition state, so the constant-time unchecked
	// index is worth the k× footprint at simulator scale.
	tokens []int64
	psi    []int64
	// byIn(u) = byInIdx[byInOff[u]:byInOff[u+1]] lists the local
	// vertices that are out-neighbours of u (receiver side of the heavy
	// path) — a CSR index built count-then-place, replacing a
	// map-of-slices whose per-key appends dominated construction cost.
	byInOff []int32
	byInIdx []int32
	// heavyDist caches per-vertex alias tables over destination machines.
	heavyDist map[int32]*rng.Alias

	// Per-superstep scratch, recycled across supersteps so a
	// steady-state Step allocates nothing: accVals/accKeys form the
	// sparse per-destination-vertex counter behind flushLight (dense
	// values plus the list of touched keys, re-zeroed on flush), beta
	// the heavy-path per-machine counts, delivBuf/outBuf the
	// DeliverInto scratch.
	accVals  []int64
	accKeys  []int32
	beta     []int64
	delivBuf []msg
	outBuf   []core.Envelope[wire]
	// buckets[j] collects the superstep's envelopes addressed to machine
	// j (per-destination program order preserved — see the routing
	// *Buckets contract); routing.AppendBuckets concatenates them into
	// the returned outs in ascending destination order.
	buckets [][]core.Envelope[wire]

	iter int
}

func newMachine(view partition.View, opts Options) *machine {
	n := view.N()
	m := &machine{
		view:      view,
		opts:      opts,
		tokens:    make([]int64, n),
		psi:       make([]int64, n),
		byInOff:   make([]int32, n+1),
		heavyDist: make(map[int32]*rng.Alias),
		accVals:   make([]int64, n),
		beta:      make([]int64, view.K()),
		buckets:   make([][]core.Envelope[wire], view.K()),
	}
	for _, v := range view.Locals() {
		m.tokens[v] = int64(opts.Tokens)
		m.psi[v] = int64(opts.Tokens)
		for _, u := range view.InAdj(v) {
			m.byInOff[u+1]++
		}
	}
	for u := 0; u < n; u++ {
		m.byInOff[u+1] += m.byInOff[u]
	}
	m.byInIdx = make([]int32, m.byInOff[n])
	pos := make([]int32, n)
	copy(pos, m.byInOff[:n])
	// Placement order matches the old per-key append order: locals in
	// increasing ID order, each local's in-neighbours in CSR order.
	for _, v := range view.Locals() {
		for _, u := range view.InAdj(v) {
			m.byInIdx[pos[u]] = v
			pos[u]++
		}
	}
	return m
}

// byIn returns the local out-neighbours of u.
func (m *machine) byIn(u int32) []int32 {
	return m.byInIdx[m.byInOff[u]:m.byInOff[u+1]]
}

type wire = routing.Hop[msg]

func (m *machine) Step(ctx *core.StepContext, inbox []core.Envelope[wire]) ([]core.Envelope[wire], bool) {
	buckets := m.buckets
	for j := range buckets {
		buckets[j] = buckets[j][:0]
	}
	delivered := routing.DeliverIntoBuckets(m.view.Self(), inbox, m.delivBuf[:0], buckets)
	m.delivBuf = delivered[:0]
	out := m.outBuf[:0]
	for _, d := range delivered {
		m.receive(ctx, d)
	}
	// Even supersteps start walk iterations; odd ones only relay/receive.
	if ctx.Superstep%2 != 0 {
		out = routing.AppendBuckets(out, buckets)
		m.outBuf = out
		return out, m.iter >= m.opts.Iterations
	}
	if m.iter >= m.opts.Iterations {
		// Quiescence is judged on what the superstep produced: any
		// non-empty bucket keeps the cluster running.
		quiet := true
		for j := range buckets {
			if len(buckets[j]) > 0 {
				quiet = false
				break
			}
		}
		out = routing.AppendBuckets(out, buckets)
		m.outBuf = out
		return out, quiet
	}
	m.iter++

	for _, u := range m.view.Locals() {
		t := m.tokens[u]
		if t == 0 {
			continue
		}
		// Terminate each token with probability eps (Algorithm 1 line 5).
		t -= ctx.RNG.Binomial(t, m.opts.Eps)
		m.tokens[u] = 0
		if t == 0 {
			continue
		}
		adj := m.view.OutAdj(u)
		if len(adj) == 0 {
			// Dangling vertex: the killed walk ends here (the semantics
			// of the paper's Lemma 4 arithmetic — w is a sink).
			continue
		}
		if m.opts.HeavyPath && t >= int64(ctx.K) {
			m.walkHeavy(ctx, u, t, adj)
			continue
		}
		if m.opts.Aggregate {
			// Light path: accumulate destination-vertex counts across
			// all local sources (the paper's α), flushed once below.
			for i := int64(0); i < t; i++ {
				v := adj[ctx.RNG.Intn(len(adj))]
				if m.accVals[v] == 0 {
					m.accKeys = append(m.accKeys, v)
				}
				m.accVals[v]++
			}
			continue
		}
		// Baseline granularity: per (source, destination-vertex) counts,
		// flushed per source vertex — no cross-vertex merging.
		for i := int64(0); i < t; i++ {
			v := adj[ctx.RNG.Intn(len(adj))]
			if m.accVals[v] == 0 {
				m.accKeys = append(m.accKeys, v)
			}
			m.accVals[v]++
		}
		m.flushLight(ctx)
	}
	if m.opts.Aggregate {
		m.flushLight(ctx)
	}
	out = routing.AppendBuckets(out, buckets)
	m.outBuf = out
	return out, false
}

// flushLight emits one ⟨count, dest:v⟩ message per accumulated
// destination vertex, in sorted vertex order for determinism, and
// resets the accumulator (zeroing only the touched entries).
func (m *machine) flushLight(ctx *core.StepContext) {
	if len(m.accKeys) == 0 {
		return
	}
	keys := m.accKeys
	slices.Sort(keys)
	for _, v := range keys {
		payload := msg{Kind: kindLight, V: v, Count: m.accVals[v]}
		m.accVals[v] = 0
		home := m.view.HomeOf(v)
		if m.opts.TwoHop {
			routing.RouteBuckets(m.buckets, ctx.RNG, ctx.K, home, msgWords, payload)
		} else {
			routing.RouteDirectBuckets(m.buckets, home, msgWords, payload)
		}
	}
	m.accKeys = keys[:0]
}

// walkHeavy implements Algorithm 1 lines 18-27: sample a destination
// machine per token from the degree distribution and send one count
// message per machine.
func (m *machine) walkHeavy(ctx *core.StepContext, u int32, t int64, adj []int32) {
	dist, ok := m.heavyDist[u]
	if !ok {
		weights := make([]float64, ctx.K)
		for _, v := range adj {
			weights[m.view.HomeOf(v)]++
		}
		dist = rng.NewAlias(weights)
		m.heavyDist[u] = dist
	}
	beta := m.beta
	for j := range beta {
		beta[j] = 0
	}
	for i := int64(0); i < t; i++ {
		beta[dist.Sample(ctx.RNG)]++
	}
	for j, c := range beta {
		if c == 0 {
			continue
		}
		// Heavy messages go direct: there is at most one per (vertex,
		// machine) pair, so they cannot congest a link (Lemma 12).
		routing.RouteDirectBuckets(m.buckets, core.MachineID(j), msgWords,
			msg{Kind: kindHeavy, V: u, Count: c})
	}
}

// receive processes a delivered payload.
func (m *machine) receive(ctx *core.StepContext, d msg) {
	switch d.Kind {
	case kindLight:
		m.tokens[d.V] += d.Count
		m.psi[d.V] += d.Count
	case kindHeavy:
		// Distribute d.Count tokens of source vertex d.V uniformly among
		// its locally hosted out-neighbours (Algorithm 1 lines 31-36).
		local := m.byIn(d.V)
		if len(local) == 0 {
			panic(fmt.Sprintf("pagerank: machine %d got heavy tokens for %d but hosts no neighbour",
				m.view.Self(), d.V))
		}
		for i := int64(0); i < d.Count; i++ {
			w := local[ctx.RNG.Intn(len(local))]
			m.tokens[w]++
			m.psi[w]++
		}
	}
}

// Run executes a distributed PageRank computation over the given vertex
// partition. cfg.K must equal p.K. It routes through the generic
// internal/algo driver: the descriptor's machines, outputs, and merge
// are exactly what the standalone node runtime uses, so every substrate
// produces bit-identical results.
func Run(p *partition.VertexPartition, cfg core.Config, opts Options) (*Result, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("pagerank: eps=%v out of (0,1)", opts.Eps)
	}
	res, stats, err := algo.Run(Descriptor(p.G.N(), opts), p, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}
