// Package node is the standalone k-machine runtime: it drives ONE
// machine of a cluster whose peers live in other processes, connected
// by the tcp transport's socket mesh. cmd/kmnode is its CLI.
//
// Where core.Cluster steps all k machines in one process, this runtime
// distributes the loop itself, and no machine is special. Each node
// steps its machine, charges its envelopes to its own row of the
// link-load matrix (core.ChargeOuts), and exchanges one frame with
// every peer. The frame's header carries the node's report: done,
// sent, cross-machine messages, its per-link words, and the text of a
// Step error if there was one. After the exchange every node holds the
// same k reports, folds them into its own core.Ledger, and reaches the
// same decision — continue, stop, or abort — with core's own
// arithmetic, max(1, ceil(max-link-words/B)) rounds per superstep. A
// run over this runtime therefore returns, on every node, the Stats
// the same machines produce under core.Cluster. Klauck et al.
// (arXiv:1311.6209) show why deciding locally is safe: the §1.1
// accounting is a pure function of the per-link words, whichever
// machine computes it. The integration tests assert the equality.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/obs"
	"kmachine/internal/rng"
	"kmachine/internal/transport"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// Config describes one node's place in the cluster.
type Config struct {
	// ID is this node's machine ID; K the cluster size.
	ID, K int
	// ListenAddr is this node's listen address ("host:port"; port 0
	// picks a free port, useful only when peers learn it out of band).
	ListenAddr string
	// Peers holds the k listen addresses in machine-ID order.
	Peers []string
	// Bandwidth is the per-link capacity in words per round.
	Bandwidth int
	// Seed derives every machine's random stream, exactly like
	// core.Config.Seed: node i draws from rng.NewStream(Seed, i).
	Seed uint64
	// MaxSupersteps aborts runaway algorithms; 0 means core's default.
	MaxSupersteps int
	// DropPerSuperstep disables Stats.PerSuperstep retention, exactly
	// like core.Config.DropPerSuperstep. Every node folds its own
	// Stats, so all k nodes must agree on it for their Stats to match.
	DropPerSuperstep bool
	// DialTimeout bounds mesh construction; 0 means tcp's default.
	DialTimeout time.Duration
	// Context cancels the run: the superstep loop observes it between
	// phases and it bounds every socket operation, so canceling it
	// tears the node down promptly with a wrapped context error. nil
	// means Background.
	Context context.Context
	// SuperstepTimeout bounds each superstep's exchange, the one
	// cross-machine phase. A peer process that crashes or wedges
	// surfaces as a machine-attributed error within the timeout on
	// every surviving node instead of hanging the cluster. 0 means no
	// deadline. Happy-path Stats and outputs are unaffected.
	SuperstepTimeout time.Duration
	// Recorder, when non-nil, receives wall-clock phase spans from this
	// node's superstep loop — compute (the Step call) and exchange
	// (this node's exchange, reports included), both with Machine = ID
	// — and is installed on the endpoint so its pipeline workers record
	// per-peer frame spans too.
	// Same contract as core.Config.Recorder: concurrency-safe,
	// allocation-free, nil keeps the loop on its span-free path. In
	// RunLocal all k machines share the one recorder, yielding a
	// cluster-wide timeline.
	Recorder obs.Recorder
	// Checkpoint is the checkpoint/recovery policy (checkpoint.go). Off
	// by default; when Every > 0 the machine must implement
	// core.Snapshotter. Works on RunLocal and RunJobLocal; standalone
	// Run rejects it.
	Checkpoint CheckpointConfig
}

func (cfg *Config) validate() error {
	if cfg.K < 2 || cfg.ID < 0 || cfg.ID >= cfg.K {
		return fmt.Errorf("node: invalid id %d for k=%d", cfg.ID, cfg.K)
	}
	if cfg.Bandwidth < 1 {
		return fmt.Errorf("node: need Bandwidth >= 1 word/round, got %d", cfg.Bandwidth)
	}
	if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = 1 << 20
	}
	return nil
}

// Run executes one machine of the cluster: listen, dial the mesh, then
// drive supersteps until the k reports say the computation is
// complete. The returned Stats are the full cluster statistics, which
// every node folds from the same reports, so every node of a
// successful run returns identical Stats.
func Run[M any](cfg Config, m core.Machine[M], codec wire.Codec[M]) (*core.Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Checkpoint.Every > 0 {
		// A checkpoint is one cut of all k machines, assembled in one
		// process; a single standalone node only ever holds its own
		// section.
		return nil, errors.New("node: checkpointing needs all k machines in one process (RunLocal or RunJobLocal); standalone Run cannot assemble a checkpoint")
	}
	ep, err := tcp.Listen[M](cfg.ID, cfg.K, cfg.ListenAddr, codec)
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	if err := ep.Connect(cfg.Peers, cfg.DialTimeout); err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		ep.SetRecorder(cfg.Recorder)
	}
	return runLoop(cfg, ep, m, codec, nil)
}

// RunLocal spawns the full k-machine cluster over loopback TCP inside
// one process — every machine gets its own listener, dials every peer,
// and runs the standalone superstep loop (kmnode's -local mode). The
// factory is called once per machine, like core.NewCluster's. cfg is a
// template: ID, ListenAddr, and Peers are ignored (every machine gets
// its own loopback endpoint); K, Bandwidth, Seed, MaxSupersteps,
// DropPerSuperstep, Context, SuperstepTimeout, and Checkpoint apply to
// all.
func RunLocal[M any](cfg Config, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, error) {
	k := cfg.K
	ck, err := openCheckpoints(cfg.Checkpoint, k)
	if err != nil {
		return nil, err
	}
	eps, err := tcp.NewLoopbackMesh[M](k, codec)
	if err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		for _, ep := range eps {
			ep.SetRecorder(cfg.Recorder)
		}
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	// Factory calls stay sequential, matching core.NewCluster's contract
	// (factories may append to shared slices without locking).
	machines := make([]core.Machine[M], k)
	for i := 0; i < k; i++ {
		machines[i] = factory(core.MachineID(i))
	}
	stats := make([]*core.Stats, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mcfg := cfg
			mcfg.ID = i
			mcfg.ListenAddr, mcfg.Peers = "", nil
			if err := mcfg.validate(); err == nil {
				stats[i], errs[i] = runLoop(mcfg, eps[i], machines[i], codec, ck)
			} else {
				errs[i] = err
			}
			if errs[i] != nil {
				// A node that bails early must tear its endpoint down
				// right away: peers may be parked in reads on its
				// connections with no (or a long) deadline, and the
				// close is what unwedges them immediately (standalone
				// node.Run gets this from its deferred Close; here all
				// k share the process).
				eps[i].Close()
			}
		}(i)
	}
	wg.Wait()
	return stats[0], firstErr(errs)
}

// firstErr returns the lowest-numbered machine's error. On an abort
// every node returns the same one.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runLoop is the distributed mirror of core.Cluster.RunOn: step,
// charge, exchange the envelopes with the report riding in the frame
// header, then settle. It observes cfg.Context between supersteps and
// bounds every exchange with cfg.SuperstepTimeout, so a crashed or
// wedged peer process surfaces as a machine-attributed error within
// the timeout on this node rather than wedging it forever. A node whose
// Step failed still exchanges — an empty batch, the error text in its
// report — so every node learns of it in the same superstep and returns
// the same error. ck is the in-process checkpoint plane, nil when
// checkpointing is off.
func runLoop[M any](cfg Config, ep *tcp.Endpoint[M], m core.Machine[M], codec wire.Codec[M], ck *cutPlane) (*core.Stats, error) {
	runCtx := cfg.Context
	if runCtx == nil {
		runCtx = context.Background()
	}
	ctx := &core.StepContext{Self: core.MachineID(cfg.ID), K: cfg.K, RNG: rng.NewStream(cfg.Seed, uint64(cfg.ID))}
	stats := &core.Stats{RecvWords: make([]int64, cfg.K), SentWords: make([]int64, cfg.K)}
	// Every return carries finalized Stats, like core's.
	defer func() { stats.Finalize() }()
	var inbox []core.Envelope[M]
	var snap core.Snapshotter
	start := 0
	if ck != nil {
		var ok bool
		if snap, ok = m.(core.Snapshotter); !ok {
			return nil, fmt.Errorf("node: machine %d (%T) does not implement core.Snapshotter; checkpointing needs SnapshotState/RestoreState", cfg.ID, m)
		}
		if codec == nil {
			return nil, fmt.Errorf("node: machine %d checkpointing needs a message codec", cfg.ID)
		}
		if ck.sections != nil {
			var err error
			if inbox, err = core.RestoreSection(ck.sections[cfg.ID], ctx, snap, codec); err != nil {
				return nil, fmt.Errorf("node: machine %d resume from superstep %d: %w", cfg.ID, ck.resumeAt, err)
			}
			stats = cloneStats(ck.stats)
			start = ck.resumeAt + 1
		}
	}
	ledger := core.NewLedger(cfg.K, cfg.Bandwidth, cfg.DropPerSuperstep)
	row := &ledger.Rows[cfg.ID] // this node's own link loads
	reports := make([]report, cfg.K)
	var repBuf []byte // report encode scratch, reused
	for step := start; ; step++ {
		if step >= cfg.MaxSupersteps {
			// Every node shares MaxSupersteps and steps in lockstep, so
			// all abort on the same superstep.
			return stats, core.ErrMaxSupersteps
		}
		if err := runCtx.Err(); err != nil {
			// Tear our endpoint down before leaving: peers parked on
			// our connections unblock immediately instead of waiting
			// out their own deadlines.
			ep.Close()
			return stats, fmt.Errorf("node: machine %d canceled before superstep %d: %w", cfg.ID, step, err)
		}

		ctx.Superstep = step
		var t0 int64
		if cfg.Recorder != nil {
			t0 = obs.Now()
		}
		out, done, stepErr := core.StepMachine(m, ctx, inbox)
		if cfg.Recorder != nil {
			cfg.Recorder.Record(obs.Span{Start: t0, Dur: obs.Now() - t0,
				Machine: int32(cfg.ID), Peer: -1, Superstep: int32(step), Phase: obs.PhaseCompute})
		}
		// Validation and the per-link charge are core's own, so the
		// report carries exactly the row core's engine would account.
		rep := &reports[cfg.ID]
		*rep = report{done: done, linkWords: row.Words}
		if stepErr == nil {
			rep.messages, rep.emitted, stepErr = core.ChargeOuts(row, ctx.Self, out)
		}
		if stepErr != nil {
			rep.err = stepErr.Error()
			out = nil // still take part in the exchange so peers don't hang
		}
		repBuf = rep.appendEncode(repBuf[:0], step)

		sctx := runCtx
		var cancel context.CancelFunc
		if cfg.SuperstepTimeout > 0 {
			sctx, cancel = context.WithTimeout(runCtx, cfg.SuperstepTimeout)
		}
		if cfg.Recorder != nil {
			t0 = obs.Now()
		}
		next, hdrs, err := ep.Exchange(sctx, step, repBuf, out)
		if cfg.Recorder != nil {
			// Per node, not the cluster's -1: each node performs its own
			// exchange.
			cfg.Recorder.Record(obs.Span{Start: t0, Dur: obs.Now() - t0,
				Machine: int32(cfg.ID), Peer: -1, Superstep: int32(step), Phase: obs.PhaseExchange})
		}
		if cancel != nil {
			cancel()
		}
		if err != nil {
			// When the run context died mid-superstep the transport
			// error is just the shrapnel of the teardown (closed
			// connections, aborted reads); report the cancellation as
			// the cause so callers can errors.Is it.
			if cErr := runCtx.Err(); cErr != nil {
				err = fmt.Errorf("node: machine %d canceled in superstep %d: %w (teardown: %v)", cfg.ID, step, cErr, err)
			}
			return stats, err
		}
		if stop, err := settle(cfg.ID, step, hdrs, reports, ledger, stats); stop || err != nil {
			return stats, err
		}
		inbox = next
		if ck != nil && (step+1)%ck.every == 0 {
			// core's cut: the Stats already include this superstep, the
			// RNG sits at its post-compute position, and inbox holds
			// exactly the messages superstep step+1 consumes.
			if err := capture(ck, step, ctx, snap, inbox, codec, stats); err != nil {
				ep.Close()
				return stats, fmt.Errorf("node: machine %d checkpoint at superstep %d: %w", cfg.ID, step, err)
			}
		}
	}
}

// settle decodes the peers' reports of superstep step from the frame
// headers and folds all k into the ledger; this node's own report and
// row are already in place. Every node holds the same k reports, so
// every node reaches the same result: an error naming the
// lowest-numbered machine whose Step failed, stop once the cluster is
// quiescent, or continue with the superstep charged exactly as core's
// engine charges it. A missing or malformed report is a
// *transport.MachineError naming its sender.
func settle(id, step int, hdrs [][]byte, reports []report, ledger *core.Ledger, stats *core.Stats) (stop bool, err error) {
	k := len(reports)
	for j, h := range hdrs {
		if j == id {
			continue
		}
		rep := &reports[j]
		if h == nil {
			err = errors.New("frame carries no report")
		} else if err = decodeReportInto(rep, h, step); err == nil && len(rep.linkWords) != k {
			err = fmt.Errorf("report has %d links, want %d", len(rep.linkWords), k)
		}
		if err != nil {
			return false, &transport.MachineError{Machine: transport.MachineID(j), Superstep: step,
				Err: fmt.Errorf("node: machine %d report from %d: %w", id, j, err)}
		}
	}
	var messages int64
	allDone, sent := true, false
	for j := range reports {
		rep := &reports[j]
		if rep.err != "" {
			return false, fmt.Errorf("machine %d: %s", j, rep.err)
		}
		allDone = allDone && rep.done
		sent = sent || rep.emitted
		messages += rep.messages
		if j != id {
			for to, w := range rep.linkWords {
				ledger.Rows[j].Add(to, w)
			}
		}
	}
	return ledger.Settle(stats, messages, allDone, sent), nil
}

// report is one node's per-superstep account, carried in the header of
// every data frame it sends.
type report struct {
	done      bool
	emitted   bool
	messages  int64
	linkWords []int64 // words this node sent to each machine (self = 0)
	err       string
}

const (
	repFlagDone = 1 << iota
	repFlagEmitted
	repFlagError
)

// appendEncode serialises the report into dst, which callers recycle
// across supersteps (runLoop ships one report per superstep on the hot
// path of every node).
func (r *report) appendEncode(dst []byte, step int) []byte {
	var flags byte
	if r.done {
		flags |= repFlagDone
	}
	if r.emitted {
		flags |= repFlagEmitted
	}
	if r.err != "" {
		flags |= repFlagError
	}
	buf := append(dst, flags)
	buf = wire.AppendUvarint(buf, uint64(step))
	buf = wire.AppendUvarint(buf, uint64(r.messages))
	buf = wire.AppendUvarint(buf, uint64(len(r.linkWords)))
	for _, w := range r.linkWords {
		buf = wire.AppendUvarint(buf, uint64(w))
	}
	if r.err != "" {
		buf = append(buf, r.err...)
	}
	return buf
}

// decodeReportInto decodes a report into rep, reusing rep.linkWords
// when it has the capacity — every node decodes k-1 reports per
// superstep into the same recycled structs.
func decodeReportInto(rep *report, buf []byte, wantStep int) error {
	if len(buf) < 1 {
		return fmt.Errorf("node: empty report")
	}
	flags := buf[0]
	c := wire.Cursor{Src: buf, Off: 1}
	step, messages := c.Uvarint(), c.Uvarint()
	// Each link word costs at least one byte: a corrupt count is
	// rejected before it sizes the slice.
	n := c.Count(1)
	if c.Err != nil {
		return fmt.Errorf("node: corrupt report: %w", c.Err)
	}
	if step != uint64(wantStep) {
		return fmt.Errorf("node: report for superstep %d, want %d", step, wantStep)
	}
	rep.done = flags&repFlagDone != 0
	rep.emitted = flags&repFlagEmitted != 0
	rep.messages = int64(messages)
	if cap(rep.linkWords) < n {
		rep.linkWords = make([]int64, n)
	}
	rep.linkWords = rep.linkWords[:n]
	for i := range rep.linkWords {
		rep.linkWords[i] = int64(c.Uvarint())
	}
	if c.Err != nil {
		return fmt.Errorf("node: corrupt report: %w", c.Err)
	}
	rep.err = ""
	if flags&repFlagError != 0 {
		rep.err = string(buf[c.Off:])
	}
	return nil
}
