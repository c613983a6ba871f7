// Package node is the standalone k-machine runtime: it drives ONE
// machine of a cluster whose peers live in other processes, connected
// by the tcp transport's socket mesh. cmd/kmnode is its CLI.
//
// Where core.Cluster steps all k machines in one process and barriers
// with a sync.WaitGroup, this runtime distributes the loop itself: each
// node steps its machine, exchanges one superstep's batched envelopes
// with its peers over TCP, and then reports ⟨done, emitted, per-link
// word counts⟩ to the coordinator (machine 0). The coordinator runs
// exactly core's accounting arithmetic on the assembled link-load
// matrix — max(1, ceil(max-link-words/B)) rounds per superstep — and
// broadcasts a verdict: continue, stop (carrying the final Stats), or
// abort. A run over this runtime therefore reports the same Rounds and
// Words as the same machines under core.Cluster on the loopback
// transport; the conversion results of Klauck et al. (arXiv:1311.6209)
// are about precisely this substrate-independence, and the integration
// tests assert it.
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
	// DropPerSuperstep disables Stats.PerSuperstep retention on the
	// coordinator, exactly like core.Config.DropPerSuperstep; only the
	// coordinator's value matters (the field travels inside the final
	// stop verdict, so all nodes still return identical Stats).
	DropPerSuperstep bool
	// DialTimeout bounds mesh construction; 0 means tcp's default.
	DialTimeout time.Duration
	// Context cancels the run: the superstep loop observes it between
	// phases and it bounds every socket operation, so canceling it
	// tears the node down promptly with a wrapped context error. nil
	// means Background.
	Context context.Context
	// SuperstepTimeout bounds each superstep's cross-machine phases: the
	// deadline covers the exchange and the report/verdict round after
	// it. A peer process that crashes or wedges surfaces as a
	// machine-attributed error within the timeout on every surviving
	// node instead of hanging the cluster. 0 means no deadline.
	// Happy-path Stats and outputs are unaffected.
	SuperstepTimeout time.Duration
	// Recorder, when non-nil, receives wall-clock phase spans from this
	// node's superstep loop — compute (the Step call), exchange (this
	// node's data-plane barrier), and barrier (the report/verdict
	// control round), all with Machine = ID — and is installed on the
	// endpoint so its pipeline workers record per-peer frame spans too.
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
// drive supersteps until the coordinator calls the computation
// complete. The returned Stats are the full cluster statistics (the
// coordinator computes them and ships them in the stop verdict), so
// every node of a successful run returns identical Stats.
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
	for _, err := range errs {
		if err != nil {
			// Prefer the coordinator's error: it aggregates the cluster
			// view, and on an abort every node returns the same message.
			if errs[0] != nil {
				return stats[0], errs[0]
			}
			return stats[0], err
		}
	}
	return stats[0], nil
}

// runLoop is the distributed mirror of core.Cluster.RunOn: it observes
// cfg.Context between phases and bounds every superstep's socket
// operations with cfg.SuperstepTimeout, so a crashed or wedged peer
// process surfaces as a machine-attributed error within the timeout on
// this node rather than wedging it forever. ck is the in-process
// checkpoint plane, nil when checkpointing is off.
func runLoop[M any](cfg Config, ep *tcp.Endpoint[M], m core.Machine[M], codec wire.Codec[M], ck *cutPlane) (*core.Stats, error) {
	runCtx := cfg.Context
	if runCtx == nil {
		runCtx = context.Background()
	}
	ctx := &core.StepContext{Self: core.MachineID(cfg.ID), K: cfg.K, RNG: rng.NewStream(cfg.Seed, uint64(cfg.ID))}
	var coord *coordinator
	if cfg.ID == 0 {
		coord = newCoordinator(cfg.K, cfg.Bandwidth, cfg.DropPerSuperstep)
	}
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
			if coord != nil {
				coord.stats = ck.stats
			}
			start = ck.resumeAt + 1
		}
	}
	row := core.NewLinkRow(cfg.K) // this node's link loads, reused
	var repBuf []byte             // report encode scratch, reused
	for step := start; ; step++ {
		if step >= cfg.MaxSupersteps {
			// Every node shares MaxSupersteps and steps in lockstep, so
			// all abort on the same superstep; only the coordinator has
			// the (partial) statistics.
			return coordStats(coord), core.ErrMaxSupersteps
		}
		if err := runCtx.Err(); err != nil {
			// Tear our endpoint down before leaving: peers parked on
			// our connections unblock immediately instead of waiting
			// out their own deadlines.
			ep.Close()
			return coordStats(coord), fmt.Errorf("node: machine %d canceled before superstep %d: %w", cfg.ID, step, err)
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
		rep := report{done: done, linkWords: row.Words}
		if stepErr == nil {
			rep.messages, rep.emitted, stepErr = core.ChargeOuts(&row, ctx.Self, out)
		}
		if stepErr != nil {
			rep.err = stepErr.Error()
			out = nil // still participate in the exchange so peers don't hang
		}
		repBuf = rep.appendEncode(repBuf[:0], step)
		row.Reset()

		// The superstep context, and its deadline, cover the exchange
		// and the report/verdict round.
		sctx := runCtx
		var cancel context.CancelFunc
		if cfg.SuperstepTimeout > 0 {
			sctx, cancel = context.WithTimeout(runCtx, cfg.SuperstepTimeout)
		}
		v, next, err := superstepRound(cfg, ep, coord, sctx, step, repBuf, out)
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
			return coordStats(coord), err
		}
		switch v.kind {
		case verdictContinue:
			inbox = next
			if ck != nil && (step+1)%ck.every == 0 {
				// core's cut: the coordinator's Stats already include
				// this superstep, the RNG sits at its post-compute
				// position, and inbox holds exactly the messages
				// superstep step+1 consumes.
				if err := capture(ck, step, ctx, snap, inbox, codec, coord); err != nil {
					ep.Close()
					return coordStats(coord), fmt.Errorf("node: machine %d checkpoint at superstep %d: %w", cfg.ID, step, err)
				}
			}
		case verdictStop:
			return v.stats, nil
		case verdictAbort:
			return coordStats(coord), errors.New(v.errMsg)
		}
	}
}

// superstepRound runs the cross-machine phases of one superstep
// — exchange, report, verdict — under its superstep context. The
// failure protocol: a node whose Step failed still exchanges (an empty
// batch) and carries the error in its report, so the coordinator learns
// of it and broadcasts an abort verdict that every surviving machine
// returns as the same error; a node that dies outright is detected by
// its peers' bounded reads (exchange) or the coordinator's bounded
// CollectReports, and the coordinator then broadcasts the abort best
// effort over whatever control connections remain before failing
// itself. Transport-level failures arrive as *transport.MachineError
// with machine/superstep attribution from the tcp layer.
//
// repPayload is the node's encoded report; it is recycled scratch owned
// by runLoop, which is safe because the endpoint either writes it out
// immediately or (on the coordinator) queues it only until the
// CollectReports of this same superstep pops it.
func superstepRound[M any](cfg Config, ep *tcp.Endpoint[M], coord *coordinator, sctx context.Context, step int, repPayload []byte, out []core.Envelope[M]) (verdict, []core.Envelope[M], error) {
	// Phase spans mirror core's engine, but per node: the exchange span
	// is this node's data-plane barrier (Machine = ID, not the cluster's
	// -1 — each node performs its own), and the report/verdict control
	// round below plays the role of core's barrier wait, so it records
	// as PhaseBarrier.
	rec := cfg.Recorder
	var t0 int64
	if rec != nil {
		t0 = obs.Now()
	}
	next, err := ep.Exchange(sctx, step, out)
	if rec != nil {
		rec.Record(obs.Span{Start: t0, Dur: obs.Now() - t0,
			Machine: int32(cfg.ID), Peer: -1, Superstep: int32(step), Phase: obs.PhaseExchange})
	}
	if err != nil {
		return verdict{}, nil, err
	}
	var b0 int64
	if rec != nil {
		b0 = obs.Now()
		defer func() {
			rec.Record(obs.Span{Start: b0, Dur: obs.Now() - b0,
				Machine: int32(cfg.ID), Peer: -1, Superstep: int32(step), Phase: obs.PhaseBarrier})
		}()
	}
	if err := ep.SendToCoordinator(sctx, repPayload); err != nil {
		return verdict{}, nil, fmt.Errorf("node: machine %d report (superstep %d): %w", cfg.ID, step, err)
	}

	var verdictPayload []byte
	if coord != nil {
		reports, err := ep.CollectReports(sctx, step)
		if err != nil {
			// A report that never arrived means a peer died between the
			// exchange and its report. Propagate the abort to the
			// survivors — best effort, over whatever control
			// connections still work — so they return an attributed
			// error instead of waiting out their own deadlines.
			abortBroadcast(ep, sctx, err)
			return verdict{}, nil, err
		}
		verdictPayload, err = coord.process(step, reports)
		if err != nil {
			abortBroadcast(ep, sctx, err)
			return verdict{}, nil, err
		}
		if err := ep.Broadcast(sctx, verdictPayload); err != nil {
			return verdict{}, nil, err
		}
	} else {
		var err error
		verdictPayload, err = ep.ReceiveVerdict(sctx)
		if err != nil {
			// No verdict within the deadline: the coordinator (or the
			// path to it) is gone. Attribute the wait to machine 0 —
			// unless the tcp layer already attributed a more specific
			// culprit.
			var me *transport.MachineError
			if !errors.As(err, &me) {
				err = &transport.MachineError{Machine: 0, Superstep: step,
					Err: fmt.Errorf("node: machine %d verdict wait: %w", cfg.ID, err)}
			}
			return verdict{}, nil, err
		}
	}

	v, err := decodeVerdict(verdictPayload)
	if err != nil {
		return verdict{}, nil, err
	}
	return v, next, nil
}

// abortBroadcast ships an abort verdict to every peer, best effort.
// The coordinator reaches here precisely when the superstep context has
// failed (an expired deadline is the common case), so the writes run
// under a fresh short deadline — reusing the dead context would make
// every abort write fail instantly and leave the survivors to time out
// blaming the coordinator instead of the real culprit.
func abortBroadcast[M any](ep *tcp.Endpoint[M], sctx context.Context, cause error) {
	actx, cancel := context.WithTimeout(context.WithoutCancel(sctx), 2*time.Second)
	defer cancel()
	_ = ep.Broadcast(actx, encodeAbort(cause.Error()))
}

// coordStats returns the coordinator's (possibly partial) statistics
// for error returns, finalized like core's so MaxRecvWords is
// consistent on every path.
func coordStats(c *coordinator) *core.Stats {
	if c == nil {
		return nil
	}
	c.stats.Finalize()
	return c.stats
}

// report is one node's per-superstep account to the coordinator.
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
// when it has the capacity — the coordinator decodes k reports per
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

// coordinator aggregates reports into core-identical Stats through
// core's own Ledger, reused across supersteps like core's engine.
type coordinator struct {
	k       int
	stats   *core.Stats
	ledger  *core.Ledger
	reports []*report
}

func newCoordinator(k, bandwidth int, dropPerSuperstep bool) *coordinator {
	c := &coordinator{
		k: k,
		stats: &core.Stats{
			RecvWords: make([]int64, k),
			SentWords: make([]int64, k),
		},
		ledger:  core.NewLedger(k, bandwidth, dropPerSuperstep),
		reports: make([]*report, k),
	}
	for i := range c.reports {
		c.reports[i] = &report{linkWords: make([]int64, 0, k)}
	}
	return c
}

// process charges one superstep's reports and returns the verdict to
// broadcast.
func (c *coordinator) process(step int, payloads [][]byte) ([]byte, error) {
	reports := c.reports
	for i, p := range payloads {
		rep := reports[i]
		if err := decodeReportInto(rep, p, step); err != nil {
			return nil, fmt.Errorf("node: coordinator report from %d: %w", i, err)
		}
		if len(rep.linkWords) != c.k {
			return nil, fmt.Errorf("node: report from %d has %d links, want %d", i, len(rep.linkWords), c.k)
		}
	}
	for i, rep := range reports {
		if rep.err != "" {
			return encodeAbort(fmt.Sprintf("machine %d: %s", i, rep.err)), nil
		}
	}

	// Each report is its node's row of the link-load matrix; the ledger
	// is the one core.RunOn charges, which is what makes the two
	// runtimes' Stats bit-identical by construction.
	var messages int64
	allDone, pending := true, false
	for i, rep := range reports {
		allDone = allDone && rep.done
		pending = pending || rep.emitted
		for j, w := range rep.linkWords {
			c.ledger.Rows[i].Add(j, w)
		}
		messages += rep.messages
	}
	if allDone && !pending {
		// Quiescent: like core, the final silent superstep is free.
		c.stats.Finalize()
		return encodeStop(c.stats), nil
	}
	c.ledger.Charge(c.stats, messages)
	return []byte{verdictContinue}, nil
}

// Verdict kinds (first payload byte).
const (
	verdictContinue = byte(iota)
	verdictStop
	verdictAbort
)

type verdict struct {
	kind   byte
	stats  *core.Stats
	errMsg string
}

// encodeStop is the stop verdict: the final Stats in core's varint
// record (core.AppendStats), the codec checkpoints use.
func encodeStop(stats *core.Stats) []byte {
	return core.AppendStats([]byte{verdictStop}, stats)
}

func encodeAbort(msg string) []byte {
	return append([]byte{verdictAbort}, msg...)
}

func decodeVerdict(buf []byte) (verdict, error) {
	if len(buf) < 1 {
		return verdict{}, fmt.Errorf("node: empty verdict")
	}
	v := verdict{kind: buf[0]}
	switch v.kind {
	case verdictContinue:
	case verdictStop:
		c := wire.Cursor{Src: buf, Off: 1}
		v.stats = core.DecodeStats(&c)
		if err := c.Finish(); err != nil {
			return verdict{}, fmt.Errorf("node: decode final stats: %w", err)
		}
	case verdictAbort:
		v.errMsg = string(buf[1:])
	default:
		return verdict{}, fmt.Errorf("node: unknown verdict kind %d", v.kind)
	}
	return v, nil
}
