package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/obs"
	"kmachine/internal/transport"
)

// traceSpans bounds one traced op's spans: a k=8 pagerank run over
// sockets records about 85k (459 supersteps × compute, barrier,
// exchange and 3 frame spans per link), so the ring never wraps.
const traceSpans = 1 << 18

// addEngine records the engine-phase layer metrics of one traced op:
// compute and barrier as the mean machine's total, exchange as the
// mean exchanging party's total (one cluster-level span per superstep
// on the core engine, one per machine on the node runtime), so the
// three add up to the op's traced wall time times the span coverage.
func (s samples) addEngine(spans []obs.Span) {
	sum := obs.Summarize(spans)
	exchangers := map[int32]bool{}
	for _, sp := range spans {
		if sp.Phase == obs.PhaseExchange {
			exchangers[sp.Machine] = true
		}
	}
	s.add("core.compute_s", float64(sum.Compute.TotalNs)/k/1e9)
	s.add("core.barrier_s", float64(sum.Barrier.TotalNs)/k/1e9)
	s.add("core.exchange_s", float64(sum.Exchange.TotalNs)/float64(max(len(exchangers), 1))/1e9)
	s.add("obs.span_coverage", sum.Coverage)
}

// addNode records the node runtime's per-superstep phases of one traced
// job: the report/verdict round (its barrier span) and the exchange.
func (s samples) addNode(spans []obs.Span) {
	sum := obs.Summarize(spans)
	s.add("node.verdict_round_ms", float64(sum.Barrier.P50Ns)/1e6)
	s.add("node.exchange_ms", float64(sum.Exchange.P50Ns)/1e6)
}

// addSocket records the socket layers of one traced op that crossed
// sockets: frame spans summed over every link, and frames and bytes per
// superstep and word. w is the substrate's own byte count when it
// reports one (it includes control frames); otherwise the trace's
// data-frame counters stand in.
func (s samples) addSocket(c obs.Counters, w transport.WireStats, supersteps int, words int64) {
	s.add("tcp.frame_write_s", float64(c.PhaseNs[obs.PhaseFrameWrite])/1e9)
	s.add("tcp.frame_read_s", float64(c.PhaseNs[obs.PhaseFrameRead])/1e9)
	s.add("wire.decode_s", float64(c.PhaseNs[obs.PhaseFrameDecode])/1e9)
	frames, bytes := w.FramesSent, w.BytesSent
	if frames == 0 {
		frames, bytes = c.FramesSent, c.BytesSent
	}
	if supersteps > 0 {
		s.add("tcp.frames_per_superstep", float64(frames)/float64(supersteps))
	}
	if words > 0 {
		s.add("wire.bytes_per_word", float64(bytes)/float64(words))
	}
}

// shardBuildSeconds is the median time, over reps, to build all k
// partition-local shards of prob's G(n,p) input through algo.GnpInput.
func shardBuildSeconds(prob algo.Problem, reps int) (float64, error) {
	prob.Sharded = true
	var xs []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		in, err := algo.GnpInput(prob)
		if err != nil {
			return 0, err
		}
		for m := 0; m < in.NumMachines(); m++ {
			if _, err := in.MachineView(core.MachineID(m)); err != nil {
				return 0, err
			}
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// noopCodec serialises the probe's message type; the probe sends
// nothing, so it only has to exist for the socket transport.
type noopCodec struct{}

func (noopCodec) Append(dst []byte, m uint64) ([]byte, error) {
	return binary.AppendUvarint(dst, m), nil
}

func (noopCodec) Decode(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, errors.New("noop codec: bad varint")
	}
	return v, n, nil
}

// noopRun runs k machines that send nothing and stay active until
// superstep steps-1 over kind. It returns the wall time of the whole
// run (transport open and close included) and the supersteps the
// engine counted.
func noopRun(kind transport.Kind, steps int) (time.Duration, int, error) {
	cl := core.NewCluster(core.Config{K: k, Bandwidth: 1, Seed: 1, Transport: kind, MaxSupersteps: steps + 1},
		func(core.MachineID) core.Machine[uint64] {
			return core.MachineFunc[uint64](func(ctx *core.StepContext, _ []core.Envelope[uint64]) ([]core.Envelope[uint64], bool) {
				return nil, ctx.Superstep >= steps-1
			})
		})
	t0 := time.Now()
	st, err := core.RunOver(cl, noopCodec{})
	d := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	if st.Words != 0 {
		return 0, 0, fmt.Errorf("noop probe on %s sent %d words", kind, st.Words)
	}
	return d, st.Supersteps, nil
}

// noopSuperstepUS is the engine's per-superstep cost with no traffic:
// the median over reps of the extra wall time of a long run over a
// two-superstep one, per extra superstep, which cancels the
// transport's open and close.
func noopSuperstepUS(kind transport.Kind, steps, reps int) (float64, error) {
	var xs []float64
	for r := 0; r < reps; r++ {
		few, fewSteps, err := noopRun(kind, 2)
		if err != nil {
			return 0, err
		}
		many, manySteps, err := noopRun(kind, steps)
		if err != nil {
			return 0, err
		}
		if manySteps <= fewSteps {
			return 0, fmt.Errorf("noop probe on %s: %d supersteps counted for %d, %d for 2", kind, manySteps, steps, fewSteps)
		}
		xs = append(xs, float64(many-few)/float64(manySteps-fewSteps)/1e3)
	}
	return median(xs), nil
}

// probeLayers runs the workload-independent probes every traced run
// reports: the no-op engine on the loopback and on sockets.
func probeLayers(cfg Config, s samples) error {
	steps, tcpSteps, reps := 2000, 300, 5
	if cfg.Quick {
		steps, tcpSteps, reps = 100, 20, 2
	}
	in, err := noopSuperstepUS(transport.InMem, steps, reps)
	if err != nil {
		return err
	}
	tc, err := noopSuperstepUS(transport.TCP, tcpSteps, reps)
	if err != nil {
		return err
	}
	s.add("core.noop_superstep_us.inmem", in)
	s.add("core.noop_superstep_us.tcp", tc)
	return nil
}
