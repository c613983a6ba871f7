package main

import (
	"fmt"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/gen"
	"kmachine/internal/obs"
	"kmachine/internal/transport"
)

// clusterSpec is a workload whose op is one whole registry run on an
// in-process cluster, ops running one after another.
type clusterSpec struct {
	name string
	algo string
	kind transport.Kind
	prob func(Config) algo.Problem
}

// pagerankTCP is bound by per-superstep cost: hundreds of supersteps of
// small frames, where the sockets' barrier and exchange dwarf compute.
var pagerankTCP = clusterSpec{
	name: "pagerank-tcp", algo: "pagerank", kind: transport.TCP,
	prob: func(cfg Config) algo.Problem {
		n := 1200
		if cfg.Quick {
			n = 200
		}
		return algo.Problem{N: n, EdgeP: 10 / float64(n), K: k, Seed: cfg.Seed, Eps: 0.15}
	},
}.workload()

// triangleSharded is data-bound and never touches a socket: three
// supersteps of bulk traffic over partition-local shards, so setup and
// compute dominate.
var triangleSharded = clusterSpec{
	name: "triangle-sharded", algo: "triangle", kind: transport.InMem,
	prob: func(cfg Config) algo.Problem {
		if cfg.Quick {
			return algo.Problem{N: 400, EdgeP: 0.05, K: k, Seed: cfg.Seed, Sharded: true}
		}
		return algo.Problem{N: 4000, EdgeP: 0.02, K: k, Seed: cfg.Seed, Sharded: true}
	},
}.workload()

func (c clusterSpec) workload() workload {
	return workload{name: c.name, refs: c.refs, run: c.run, trace: c.trace}
}

func (c clusterSpec) refs(cfg Config) (Refs, error) {
	r, err := referenceOf(c.algo, c.prob(cfg))
	if err != nil {
		return nil, err
	}
	return Refs{c.algo: r}, nil
}

// op runs the problem once over kind, checks it against the reference
// and records it in t. It returns nil when the op failed.
func (c clusterSpec) op(prob algo.Problem, kind transport.Kind, refs Refs, t *tally) *algo.Outcome {
	e, ok := algo.Lookup(c.algo)
	if !ok {
		t.op(fmt.Errorf("%s: unknown algorithm %q", c.name, c.algo), 0, 0, 0)
		return nil
	}
	t0 := time.Now()
	o, err := e.Run(prob, kind)
	wall := time.Since(t0)
	if err == nil {
		err = refs.check(c.algo, o.Hash, o.Stats.Rounds, o.Summary)
	}
	if err != nil {
		t.op(fmt.Errorf("%s: %w", c.name, err), 0, 0, 0)
		return nil
	}
	t.op(nil, o.SetupTime, o.ExecTime, wall)
	return o
}

func (c clusterSpec) run(cfg Config, refs Refs) Result {
	prob := c.prob(cfg)
	var warm, timed tally
	c.op(prob, c.kind, refs, &warm)
	cpu0, t0 := cpuSeconds(), time.Now()
	for time.Since(t0) < cfg.Seconds || timed.attempted == 0 {
		c.op(prob, c.kind, refs, &timed)
	}
	elapsed, cpu := time.Since(t0), cpuSeconds()-cpu0
	m := timed.endToEndMetrics(nil, elapsed, cpu)
	warm.merge(&timed)
	return warm.result(m)
}

// trace alternates plain and traced ops for the measured seconds, so
// the two see the same box conditions and their exec times give the
// tracing overhead. Layers the workload itself does not cross are then
// measured on the same problem: over sockets for a loopback workload,
// and as jobs on the resident service.
func (c clusterSpec) trace(cfg Config, refs Refs) Result {
	prob := c.prob(cfg)
	s := samples{}
	var all, plain, traced tally
	tr := obs.NewTrace(traceSpans, k)
	var timeline []obs.Span

	c.op(prob, c.kind, refs, &all)
	t0 := time.Now()
	for i := 0; time.Since(t0) < cfg.Seconds || traced.attempted == 0; i++ {
		if i%2 == 0 {
			if o := c.op(prob, c.kind, refs, &plain); o != nil {
				s.add("core.wall_us_per_round", o.ExecTime.Seconds()*1e6/float64(o.Stats.Rounds))
			}
			continue
		}
		tr.Reset()
		p := prob
		p.Recorder = tr
		o := c.op(p, c.kind, refs, &traced)
		if o == nil {
			continue
		}
		timeline = tr.Spans()
		s.addEngine(timeline)
		if c.kind == transport.TCP {
			s.addSocket(tr.Counters(), o.Wire, o.Stats.Supersteps, o.Stats.Words)
		}
	}
	all.merge(&plain)
	all.merge(&traced)
	s.add("obs.trace_overhead_frac", median(traced.execS)/median(plain.execS)-1)

	reps := 5
	if cfg.Quick {
		reps = 2
	}
	sb, err := shardBuildSeconds(prob, reps)
	all.check(err)
	s.add("gen.shard_build_s", sb)
	all.check(probeLayers(cfg, s))
	if c.kind != transport.TCP {
		tr.Reset()
		p := prob
		p.Recorder = tr
		if o := c.op(p, transport.TCP, refs, &all); o != nil {
			s.addSocket(tr.Counters(), o.Wire, o.Stats.Supersteps, o.Stats.Words)
		}
	}
	serviceCompanion(c.algo, prob, refs, s, &all)

	if path := chromePath(cfg); path != "" && c.name == "pagerank-tcp" && timeline != nil {
		all.check(obs.WriteChromeTraceFile(path, timeline))
		fmt.Printf("chrome trace: %s (%d spans)\n", path, len(timeline))
	}
	m := metricsOf(perLayer, s.medians(), &all)
	return all.result(m)
}

// referenceOf computes prob's reference on the path no measured op
// takes: a materialised input on the loopback. A triangle reference is
// also checked against the sequential count.
func referenceOf(name string, prob algo.Problem) (Ref, error) {
	e, ok := algo.Lookup(name)
	if !ok {
		return Ref{}, fmt.Errorf("unknown algorithm %q", name)
	}
	prob.Sharded = false
	o, err := e.Run(prob, transport.InMem)
	if err != nil {
		return Ref{}, err
	}
	ref := Ref{Hash: o.Hash, Rounds: o.Stats.Rounds, Triangles: -1}
	if name == "triangle" {
		p := prob.EdgeP
		if p == 0 {
			p = 10 / float64(prob.N)
		}
		want := gen.Gnp(prob.N, p, prob.Seed).CountTriangles()
		got, err := triangleCount(o.Summary)
		if err != nil {
			return Ref{}, err
		}
		if got != want {
			return Ref{}, fmt.Errorf("triangle reference counts %d triangles, graph.CountTriangles %d", got, want)
		}
		ref.Triangles = want
	}
	return ref, nil
}

// triangleCount reads the count from the triangle registry summary.
func triangleCount(summary []string) (int64, error) {
	var n int64
	if len(summary) == 0 {
		return 0, fmt.Errorf("triangle outcome has no summary")
	}
	if _, err := fmt.Sscanf(summary[0], "triangle: %d triangles", &n); err != nil {
		return 0, fmt.Errorf("triangle summary %q: %w", summary[0], err)
	}
	return n, nil
}

// check compares one op's output with the reference for its algorithm.
func (r Refs) check(name string, hash uint64, rounds int64, summary []string) error {
	ref, ok := r[name]
	if !ok {
		return fmt.Errorf("no reference for %s", name)
	}
	if hash != ref.Hash {
		return fmt.Errorf("%s: output hash %016x, reference %016x", name, hash, ref.Hash)
	}
	if rounds != ref.Rounds {
		return fmt.Errorf("%s: %d rounds, reference %d", name, rounds, ref.Rounds)
	}
	if ref.Triangles >= 0 {
		n, err := triangleCount(summary)
		if err != nil {
			return err
		}
		if n != ref.Triangles {
			return fmt.Errorf("%s: %d triangles, graph.CountTriangles %d", name, n, ref.Triangles)
		}
	}
	return nil
}
