package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/core"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/transport/chaos"
)

// E25Recovery prices the fault-tolerance subsystem (ROADMAP item 5):
// what does per-superstep checkpointing cost while nothing fails, and
// what does it buy when something does? Four arms of the same PageRank
// run at each n:
//
//	base      no checkpointing — the run every golden hash describes
//	ckpt      checkpointing every e supersteps into a memory sink;
//	          the wall-clock delta over base is the overhead %, the
//	          sink's Put counters give bytes per checkpoint
//	recover   chaos kills machine 3 mid-run; the cluster restores the
//	          latest checkpoint onto a replacement transport and
//	          replays at most e supersteps
//	restart   the same kill with the first periodic checkpoint still
//	          ahead of it, so recovery falls back to the arm-time
//	          superstep -1 image — an exact restart-from-zero, the
//	          only option a checkpoint-less scheduler has
//
// The recover/restart gap is the headline: resume pays for the replay
// distance (kill superstep minus last checkpoint), restart pays for the
// whole prefix, so the saving grows with where in the run the failure
// lands. All four arms must land on one output hash — the acceptance
// bar of the recovery design is bit-identical output, not merely a
// completed run — and the table's "hash ok" note records that check.
func E25Recovery(cfg Config) (Table, error) {
	t := Table{
		ID:     "E25",
		Title:  "checkpointing: overhead while healthy, recovery latency vs restart-from-zero when a machine dies",
		Claim:  "determinism makes machine state a pure function of (seed, inbox history) — a consistent cut per e supersteps buys replay-bounded recovery with bit-identical output",
		Header: []string{"n", "supersteps", "every", "base", "ckpt", "overhead", "B/ckpt", "recover", "restart-0", "saved"},
	}
	sizes := []int{400, 800, 1600}
	bestOf := 3
	if cfg.Quick {
		sizes = []int{200}
		bestOf = 1
	}
	const k, eps = 8, 0.5
	hashOK := true
	var recoveries int
	for _, n := range sizes {
		prob := algo.Problem{N: n, K: k, EdgeP: 10 / float64(n), Seed: cfg.Seed + 251, Eps: eps}
		in, err := algo.GnpInput(prob)
		if err != nil {
			return t, fmt.Errorf("n=%d input: %w", n, err)
		}
		// Scout pass: learn the run's superstep count and golden hash,
		// then place the checkpoint cadence and the kill from them.
		scout, err := runPagerankArm(prob, in, 0, -1, nil)
		if err != nil {
			return t, fmt.Errorf("n=%d scout: %w", n, err)
		}
		ss := scout.stats.Supersteps
		every := ss / 4
		if every < 1 {
			every = 1
		}
		kill := ss / 2
		if kill < every {
			kill = every // at least one periodic checkpoint precedes the kill
		}
		if kill >= ss {
			kill = ss - 1
		}

		base, err := bestPagerankArm(prob, in, 0, -1, bestOf, nil)
		if err != nil {
			return t, fmt.Errorf("n=%d base: %w", n, err)
		}
		sink := core.NewMemorySink(2)
		ckpt, err := bestPagerankArm(prob, in, every, -1, bestOf, sink)
		if err != nil {
			return t, fmt.Errorf("n=%d ckpt: %w", n, err)
		}
		resumed, err := bestPagerankArm(prob, in, every, kill, bestOf, nil)
		if err != nil {
			return t, fmt.Errorf("n=%d recover: %w", n, err)
		}
		// A cadence beyond the kill superstep means no periodic capture
		// has happened when the machine dies: recovery restores the
		// arm-time image and replays the entire prefix.
		restart, err := bestPagerankArm(prob, in, kill+ss, kill, bestOf, nil)
		if err != nil {
			return t, fmt.Errorf("n=%d restart: %w", n, err)
		}
		hashOK = hashOK && base.hash == scout.hash && ckpt.hash == scout.hash &&
			resumed.hash == scout.hash && restart.hash == scout.hash
		// The acceptance bar is hard: a killed arm that completes with a
		// different output is a recovery bug, not a data point — fail
		// the experiment (and CI's exit-0 assertion) rather than record it.
		if !hashOK {
			return t, fmt.Errorf("n=%d: recovered output hash diverged from the unkilled golden (base=%016x ckpt=%016x recover=%016x restart=%016x golden=%016x)",
				n, base.hash, ckpt.hash, resumed.hash, restart.hash, scout.hash)
		}
		if resumed.stats.Recoveries != 1 || restart.stats.Recoveries != 1 {
			return t, fmt.Errorf("n=%d: killed arms performed %d/%d machine replacements, want exactly 1 each",
				n, resumed.stats.Recoveries, restart.stats.Recoveries)
		}
		recoveries += resumed.stats.Recoveries + restart.stats.Recoveries
		overhead := 100 * (float64(ckpt.wall)/float64(base.wall) - 1)
		bytesPer := int64(0)
		if sink.Puts() > 0 {
			bytesPer = sink.Bytes() / int64(sink.Puts())
		}
		saved := 100 * (1 - float64(resumed.wall)/float64(restart.wall))
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(ss), itoa(every),
			ms(int64(base.wall)), ms(int64(ckpt.wall)), fmt.Sprintf("%.1f%%", overhead),
			i64(bytesPer),
			ms(int64(resumed.wall)), ms(int64(restart.wall)), fmt.Sprintf("%.0f%%", saved),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("all arms produced the base run's output hash (bit-identical recovery): %v", hashOK),
		fmt.Sprintf("every killed arm performed exactly one machine replacement: %v", recoveries == 2*len(sizes)),
		"recover replays at most every supersteps past the restored cut; restart-0 replays the whole prefix — the saving is the replay-distance gap",
		"overhead is the healthy-run price of snapshotting all k machines each cadence (state codec + inbox re-encode after the exchange)",
		"B/ckpt is the full consistent cut: per-machine state blobs, RNG words, next-superstep inboxes, and the Stats prefix (core.MemorySink counters)")
	return t, nil
}

// armResult is one timed run of the pagerank recovery workload.
type armResult struct {
	hash  uint64
	stats *core.Stats
	wall  time.Duration
}

// bestPagerankArm repeats the arm and keeps the fastest wall-clock (the
// min-time estimate every timing experiment here uses). Hashes and
// Stats are identical across repetitions by determinism, so the first
// repetition's non-timing fields stand for all; only that first run
// feeds the caller's sink, whose Puts/Bytes must describe one run, not
// the sum of the repetitions.
func bestPagerankArm(prob algo.Problem, in partition.Input, every, killStep, times int, sink *core.MemorySink) (armResult, error) {
	var best armResult
	for i := 0; i < times; i++ {
		var s *core.MemorySink
		if i == 0 {
			s = sink
		}
		r, err := runPagerankArm(prob, in, every, killStep, s)
		if err != nil {
			return armResult{}, err
		}
		if i == 0 {
			best = r
		} else if r.wall < best.wall {
			best.wall = r.wall
		}
	}
	return best, nil
}

// runPagerankArm executes one PageRank run at the core layer with the
// checkpoint policy armed at cadence every (0 = off) and, when killStep
// >= 0, a chaos KillAt fault taking machine `victim` down at that
// superstep's exchange. Recovery reopens a fresh, fault-free loopback
// transport — the "replacement machine joins the mesh" of a real
// deployment. Machines are rebuilt from the shared input every call:
// each arm must start from pristine state.
func runPagerankArm(prob algo.Problem, in partition.Input, every, killStep int, sink *core.MemorySink) (armResult, error) {
	runtime.GC()
	a := pagerank.Descriptor(prob.N, pagerank.AlgorithmOne(prob.Eps))
	views, err := in.Views()
	if err != nil {
		return armResult{}, err
	}
	machines := make([]algo.Machine[pagerank.Wire, pagerank.Local], prob.K)
	for i, v := range views {
		if machines[i], err = a.NewMachine(v); err != nil {
			return armResult{}, err
		}
	}
	ccfg := core.Config{K: prob.K, Bandwidth: core.DefaultBandwidth(prob.N), Seed: prob.Seed + 2}
	if every > 0 {
		var s core.CheckpointSink
		if sink != nil {
			s = sink
		}
		ccfg.Checkpoint = core.CheckpointPolicy{Every: every, Sink: s}
	}
	cluster := core.NewCluster(ccfg, func(id core.MachineID) core.Machine[pagerank.Wire] {
		return machines[id]
	})
	inner, err := core.OpenTransport[pagerank.Wire](transport.InMem, prob.K, a.Codec)
	if err != nil {
		return armResult{}, err
	}
	var tr core.Transport[pagerank.Wire] = inner
	if killStep >= 0 {
		tr = chaos.Wrap(inner, chaos.KillAt(victim, killStep))
	}
	defer tr.Close()
	reopen := func() (core.Transport[pagerank.Wire], error) {
		return core.OpenTransport[pagerank.Wire](transport.InMem, prob.K, a.Codec)
	}
	start := time.Now()
	stats, err := cluster.RunCheckpointed(tr, a.Codec, reopen)
	wall := time.Since(start)
	if err != nil {
		return armResult{}, err
	}
	locals := make([]pagerank.Local, len(machines))
	for i, m := range machines {
		locals[i] = m.Output()
	}
	return armResult{hash: pagerankHash(a.Merge(locals)), stats: stats, wall: wall}, nil
}

const victim = 3

// pagerankHash mirrors the registry's canonical pagerank output hash
// (estimates then visit counts through algo.Hash64), so the arms'
// agreement here is the same equality the cross-substrate suites check.
func pagerankHash(r *pagerank.Result) uint64 {
	h := algo.NewHash64()
	for _, x := range r.Estimate {
		h.Add(math.Float64bits(x))
	}
	for _, c := range r.Psi {
		h.Add(uint64(c))
	}
	return h.Sum()
}
