package node

import (
	"fmt"
	"slices"
	"sync"

	"kmachine/internal/core"
	"kmachine/internal/transport/wire"
)

// This file is the node runtime's checkpoint/recovery layer. It uses
// core's cut and core's format (core/checkpoint.go): after every
// cfg.Checkpoint.Every-th superstep that settles to continue, each node
// encodes its own section — RNG stream position, machine state via
// core.Snapshotter, and the inbox the next superstep consumes — with
// core.AppendSection, and node 0 adds its Stats record (every node
// holds the same Stats).
// An in-process assembler joins the k sections into one checkpoint
// blob and hands it to the run's core.CheckpointSink, so the sink
// holds exactly what core's own engine would have written for the
// same cut.
//
// Recovery is a re-run: the job scheduler rebuilds the poisoned mesh,
// rebuilds the machines from the deterministic inputs, and re-enters
// with Checkpoint.Resume set. RunLocal and RunJobLocal then read the
// sink's latest checkpoint once, before any node starts; every node
// restores its section and a private copy of the Stats, and the loop
// continues at the following superstep, bit-identical to an unkilled
// run. With an empty sink the
// freshly built machines simply run from the start.
//
// The assembler is in-process shared memory: it serves RunLocal and
// the resident job service, where all k node loops live in one
// process. Standalone Run, which drives a single machine, rejects
// checkpointing.

// CheckpointConfig is the checkpoint policy of a node run
// (Config.Checkpoint). The zero value disables checkpointing.
type CheckpointConfig struct {
	// Every captures a checkpoint after every Every-th superstep that
	// settles to continue; 0 disables. Requires the machine to implement
	// core.Snapshotter. The capture follows the exchange, so the
	// captured inbox is what the next superstep reads.
	Every int
	// Sink stores the complete checkpoints: a core.MemorySink, or a
	// core.FileSink for a restart point that survives the process. nil
	// means a private in-memory ring; a caller that wants to resume
	// after a failure owns the sink across attempts.
	Sink core.CheckpointSink
	// Resume restores the sink's latest checkpoint before the first
	// superstep. With an empty sink the run starts from superstep 0.
	Resume bool
}

// cutPlane is the checkpoint state of one in-process run: the resume
// point decoded before the nodes start, and the assembly of the cut in
// progress.
type cutPlane struct {
	every int
	sink  core.CheckpointSink

	// resumeAt is the superstep the restored cut was taken after (-1:
	// start from zero); stats and sections are its decoded parts.
	resumeAt int
	stats    *core.Stats
	sections [][]byte

	mu    sync.Mutex
	at    int      // superstep of the cut being assembled
	parts [][]byte // length-prefixed sections received for it
	have  int
	rec   []byte // node 0's Stats record for it
	buf   []byte // blob scratch, reused (the sink copies)
}

// openCheckpoints builds the checkpoint plane of an in-process k-node
// run, or nil when checkpointing is off. With Resume set it reads and
// decodes the sink's latest checkpoint — once, before any node starts.
func openCheckpoints(cc CheckpointConfig, k int) (*cutPlane, error) {
	if cc.Every <= 0 {
		return nil, nil
	}
	p := &cutPlane{every: cc.Every, sink: cc.Sink, resumeAt: -1, at: -1, parts: make([][]byte, k)}
	if p.sink == nil {
		p.sink = core.NewMemorySink(0)
	}
	if !cc.Resume {
		return p, nil
	}
	step, blob, err := p.sink.Latest()
	if err != nil {
		return nil, fmt.Errorf("node: read latest checkpoint: %w", err)
	}
	if blob == nil {
		return p, nil
	}
	got, stats, sections, err := core.DecodeCheckpoint(blob, k)
	if err != nil {
		return nil, fmt.Errorf("node: resume: %w", err)
	}
	if got != step {
		return nil, fmt.Errorf("node: checkpoint blob names superstep %d, sink says %d", got, step)
	}
	p.resumeAt, p.stats, p.sections = step, stats, sections
	return p, nil
}

// capture encodes this node's section of the cut after superstep step
// — with the Stats record on node 0 — and adds it to the assembly.
func capture[M any](p *cutPlane, step int, ctx *core.StepContext, snap core.Snapshotter, inbox []core.Envelope[M], codec wire.Codec[M], stats *core.Stats) error {
	sec, err := core.AppendSection(nil, ctx, snap, inbox, codec)
	if err != nil {
		return err
	}
	var rec []byte
	if ctx.Self == 0 {
		rec = core.AppendStats(nil, stats)
	}
	return p.put(step, int(ctx.Self), sec, rec)
}

// cloneStats returns a deep copy of s: a resumed node folds the
// restored Stats forward on its own, so no two nodes may share one.
func cloneStats(s *core.Stats) *core.Stats {
	c := *s
	c.RecvWords = slices.Clone(s.RecvWords)
	c.SentWords = slices.Clone(s.SentWords)
	c.PerSuperstep = slices.Clone(s.PerSuperstep)
	return &c
}

// put adds machine id's section (and, from node 0, the Stats record)
// to the cut after superstep step, and stores the blob once all k
// sections are in. At most one cut is ever being assembled: a node
// cannot finish the next superstep's exchange before every peer has
// captured, because each peer captures before it sends anything for
// that superstep.
func (p *cutPlane) put(step, id int, sec, rec []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if step != p.at {
		p.at, p.have, p.rec = step, 0, nil
		clear(p.parts)
	}
	p.parts[id] = sec
	p.have++
	if rec != nil {
		p.rec = rec
	}
	if p.have < len(p.parts) {
		return nil
	}
	p.buf = core.AssembleCheckpoint(p.buf[:0], step, p.rec, p.parts)
	return p.sink.Put(step, p.buf)
}
