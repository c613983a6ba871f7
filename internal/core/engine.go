package core

import (
	"context"
	"fmt"
	"sync"

	"kmachine/internal/obs"
)

// This file is the superstep engine behind Cluster.RunOn and
// RunCheckpointed: k persistent per-machine worker goroutines
// coordinated by a reusable two-phase barrier. The engine is built so that a steady-state superstep
// allocates nothing:
//
//   - workers are spawned once per run, not once per superstep (no
//     go/WaitGroup churn in the loop);
//   - each worker owns one StepContext for the whole run, with only the
//     Superstep field updated between barriers;
//   - link loads are accumulated sparsely in a reused Ledger — only the
//     links actually touched this superstep are visited and re-zeroed,
//     instead of clearing the dense k×k matrix every superstep.
//
// The superstep protocol is two barrier phases per superstep:
//
//	coordinator                      worker i
//	write ctxs[*].Superstep
//	start.Await() ───────────────▶   start.Await()
//	                                 outs[i], dones[i] = Step(...)
//	done.Await()  ◀───────────────   done.Await()
//	validate, account, Exchange
//
// All engine state (inboxes, outs, dones, panics, ctxs) is handed back
// and forth through the barriers, whose internal mutex establishes the
// happens-before edges; no other synchronisation is needed. Shutdown
// (normal termination, error, or panic propagation) sets stop before
// releasing the start barrier one last time, so workers always exit and
// a run never leaks goroutines.

// barrier is a reusable generation-counted rendezvous for n
// participants: the p-th Await of a generation releases everyone, and
// the barrier is immediately ready for the next generation.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int
	arrived int
	gen     uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond.L = &b.mu
	return b
}

// Await blocks until all n participants have arrived.
func (b *barrier) Await() {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// engine is the per-run worker-pool state.
type engine[M any] struct {
	machines []Machine[M]
	start    *barrier // releases workers into a superstep
	done     *barrier // collects workers after their Step
	stop     bool     // set (pre-start-barrier) to shut workers down

	// rec receives per-machine compute and barrier-wait spans when
	// non-nil (Config.Recorder); nil keeps workers on the span-free
	// path the alloc fences pin.
	rec obs.Recorder

	inboxes [][]Envelope[M]
	outs    [][]Envelope[M]
	dones   []bool
	panics  []error
	ctxs    []StepContext
}

// worker is the long-lived goroutine driving machine i.
func (e *engine[M]) worker(i int) {
	for {
		e.start.Await()
		if e.stop {
			return
		}
		if e.rec == nil {
			e.stepMachine(i)
			e.done.Await()
			continue
		}
		// Instrumented path: the compute span is the Step call, the
		// barrier span the wait for the slowest machine to arrive at the
		// done barrier (the straggler itself records ~0). The superstep
		// is captured before the barrier releases — after it, the
		// coordinator may already be stamping the next one into ctxs.
		t0 := obs.Now()
		e.stepMachine(i)
		t1 := obs.Now()
		step := int32(e.ctxs[i].Superstep)
		e.rec.Record(obs.Span{Start: t0, Dur: t1 - t0,
			Machine: int32(i), Peer: -1, Superstep: step, Phase: obs.PhaseCompute})
		e.done.Await()
		e.rec.Record(obs.Span{Start: t1, Dur: obs.Now() - t1,
			Machine: int32(i), Peer: -1, Superstep: step, Phase: obs.PhaseBarrier})
	}
}

// stepMachine runs machine i's Step; a recovered panic is surfaced to
// the coordinator through panics[i].
func (e *engine[M]) stepMachine(i int) {
	e.outs[i], e.dones[i], e.panics[i] = StepMachine(e.machines[i], &e.ctxs[i], e.inboxes[i])
}

// StepMachine runs one Step with panic recovery: a panicking machine
// becomes an error naming it and the superstep, instead of killing the
// process. Both runtimes (this engine and the node runtime) step
// machines through it, so a faulty algorithm fails identically on
// every substrate.
func StepMachine[M any](m Machine[M], ctx *StepContext, inbox []Envelope[M]) (out []Envelope[M], done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: machine %d panicked in superstep %d: %v", ctx.Self, ctx.Superstep, r)
		}
	}()
	out, done = m.Step(ctx, inbox)
	return out, done, nil
}

// superstep drives one start/step/done cycle for all workers.
func (e *engine[M]) superstep(step int) {
	for i := range e.ctxs {
		e.ctxs[i].Superstep = step
	}
	e.start.Await()
	// Workers are stepping their machines here.
	e.done.Await()
}

// shutdown releases the workers with the stop flag set so they exit.
// It is deferred by every run, covering every return path exactly once.
func (e *engine[M]) shutdown() {
	e.stop = true
	e.start.Await()
}

// newEngine builds the per-run engine state shared by RunOn and
// RunCheckpointed and spawns the k workers; the caller must defer
// shutdown.
func (c *Cluster[M]) newEngine() *engine[M] {
	k := c.cfg.K
	e := &engine[M]{
		machines: c.machines,
		rec:      c.cfg.Recorder,
		start:    newBarrier(k + 1),
		done:     newBarrier(k + 1),
		inboxes:  make([][]Envelope[M], k),
		outs:     make([][]Envelope[M], k),
		dones:    make([]bool, k),
		panics:   make([]error, k),
		ctxs:     make([]StepContext, k),
	}
	for i := 0; i < k; i++ {
		e.ctxs[i] = StepContext{Self: MachineID(i), K: k, RNG: c.rngs[i]}
		go e.worker(i)
	}
	return e
}

// newStats returns zeroed run statistics for a k-machine cluster.
func newStats(k int) *Stats {
	return &Stats{
		RecvWords: make([]int64, k),
		SentWords: make([]int64, k),
	}
}

// runContext resolves Config.Context.
func (c *Cluster[M]) runContext() context.Context {
	if c.cfg.Context != nil {
		return c.cfg.Context
	}
	return context.Background()
}

// RunOn executes the cluster over the given transport. Envelope
// validation, From-stamping, and all round/word accounting happen here,
// before batches reach the transport, so the returned Stats are
// bit-identical whichever substrate carries the envelopes.
//
// Failure handling: Config.Context is observed between barrier phases
// (a canceled run aborts before the next superstep's exchange), and
// Config.SuperstepTimeout imposes a per-superstep deadline covering
// the superstep's Exchange, so a dead or wedged peer machine surfaces
// as a wrapped, machine-attributed error within the timeout. Both knobs leave the happy path byte-identical: with neither
// set, no context machinery is allocated and the golden determinism
// hashes are unchanged.
func (c *Cluster[M]) RunOn(t Transport[M]) (*Stats, error) {
	stats := newStats(c.cfg.K)
	defer stats.Finalize()
	e := c.newEngine()
	defer e.shutdown()
	return stats, c.run(e, t, c.runContext(), stats, nil, 0)
}

// run is the superstep loop, one schedule for every substrate: compute
// → barrier → validate and account → Exchange. The wire is quiet
// during compute and the per-superstep deadline covers only the
// exchange. Every envelope is validated, From-stamped and charged in
// core (ChargeOuts) before the transport sees it, so the §1.1
// accounting is the same whichever substrate carries the envelopes.
// Termination quiesces before the exchange, so the final superstep
// ships nothing.
//
// The loop starts at superstep start: 0 for a fresh run, s+1 after
// RunCheckpointed restored the cut taken after superstep s. ck, when
// non-nil, arms per-superstep checkpointing (see checkpoint.go): a cut
// of all machines is captured every ck.every supersteps, right after
// the superstep's Exchange. With ck nil the hook is a single nil
// check.
func (c *Cluster[M]) run(e *engine[M], t Transport[M], runCtx context.Context, stats *Stats, ck *ckRun[M], start int) error {
	ledger := NewLedger(c.cfg.K, c.cfg.Bandwidth, c.cfg.DropPerSuperstep)
	for step := start; ; step++ {
		done, err := c.superstep(e, t, runCtx, step, stats, ledger)
		if done || err != nil {
			return err
		}
		// The cut: superstep step is fully executed — state, RNG draws,
		// accounting, and the exchange that filled the inboxes superstep
		// step+1 reads.
		if ck != nil && (step+1)%ck.every == 0 {
			if err := ck.capture(step, e, stats); err != nil {
				return fmt.Errorf("core: checkpoint at superstep %d: %w", step, err)
			}
		}
	}
}

// superstep drives superstep step; done reports quiescent termination.
func (c *Cluster[M]) superstep(e *engine[M], t Transport[M], runCtx context.Context, step int,
	stats *Stats, ledger *Ledger) (done bool, err error) {
	if step >= c.cfg.MaxSupersteps {
		return false, ErrMaxSupersteps
	}
	if err := runCtx.Err(); err != nil {
		return false, fmt.Errorf("core: run canceled before superstep %d: %w", step, err)
	}
	e.superstep(step)
	for _, perr := range e.panics {
		if perr != nil {
			return false, perr
		}
	}
	// Second cancellation point, between the step barrier and the
	// exchange: a cancel that landed while machines were stepping
	// aborts before any envelope reaches the transport.
	if err := runCtx.Err(); err != nil {
		return false, fmt.Errorf("core: run canceled in superstep %d: %w", step, err)
	}
	if done, err := c.account(e, stats, ledger); done || err != nil {
		return done, err
	}

	// Deliver through the transport; the contract guarantees inboxes
	// come back assembled in sender order for determinism, and the
	// ownership rule lets the transport recycle inbox storage across
	// supersteps (double-buffered, so superstep s inboxes stay valid
	// while s+1 is assembled).
	var xt0 int64
	if e.rec != nil {
		xt0 = obs.Now()
	}
	next, err := c.exchange(t, runCtx, step, e.outs)
	if e.rec != nil {
		// One cluster-level span per superstep (Machine -1): the
		// exchange is a barrier, so its duration is the whole cluster's
		// communication phase. Recorded on the error path too — a
		// failed run's timeline is the one worth reading.
		e.rec.Record(obs.Span{Start: xt0, Dur: obs.Now() - xt0,
			Machine: -1, Peer: -1, Superstep: int32(step), Phase: obs.PhaseExchange})
	}
	if err != nil {
		return false, err
	}
	if len(next) != c.cfg.K {
		return false, fmt.Errorf("core: transport returned %d inboxes for a %d-machine cluster", len(next), c.cfg.K)
	}
	e.inboxes = next
	return false, nil
}

// exchange runs superstep step's Exchange under the per-superstep
// deadline, when configured: the deadline context is the run's sole
// allocation in a steady-state superstep, and only when the knob is on.
func (c *Cluster[M]) exchange(t Transport[M], runCtx context.Context, step int, outs [][]Envelope[M]) ([][]Envelope[M], error) {
	sctx := runCtx
	if c.cfg.SuperstepTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(runCtx, c.cfg.SuperstepTimeout)
		defer cancel()
	}
	next, err := t.Exchange(sctx, step, outs)
	if err != nil {
		return nil, transportFailed(runCtx, step, "exchange", err)
	}
	return next, nil
}

// transportFailed wraps a transport error. A run canceled mid-superstep
// surfaces from the transport as teardown shrapnel (closed
// connections); it is re-reported with the cancellation as the root
// cause so errors.Is(err, context.Canceled) holds as Config.Context
// documents.
func transportFailed(runCtx context.Context, step int, op string, err error) error {
	if cErr := runCtx.Err(); cErr != nil {
		return fmt.Errorf("core: run canceled in superstep %d: %w (teardown: %v)", step, cErr, err)
	}
	return fmt.Errorf("core: transport %s failed in superstep %d: %w", op, step, err)
}

// account charges every machine's superstep through ChargeOuts and
// settles it in the ledger. done reports quiescence, in which case
// nothing is charged.
func (c *Cluster[M]) account(e *engine[M], stats *Stats, ledger *Ledger) (done bool, err error) {
	var messages int64
	allDone, pending := true, false
	for i := range e.outs {
		msgs, sent, err := ChargeOuts(&ledger.Rows[i], MachineID(i), e.outs[i])
		if err != nil {
			return false, err
		}
		messages += msgs
		pending = pending || sent
		allDone = allDone && e.dones[i]
	}
	return ledger.Settle(stats, messages, allDone, pending), nil
}

// ChargeOuts is the per-machine half of the §1.1 accounting, shared by
// this engine and the node runtime so the rejection rules exist once.
// It validates and From-stamps machine self's returned envelopes and
// charges them to row. Self-addressed envelopes are free: local
// computation costs nothing in the model. messages counts the
// cross-machine envelopes; sent reports whether the machine sent
// anything at all, self-addressed included, which is what keeps a
// cluster from quiescing.
func ChargeOuts[M any](row *LinkRow, self MachineID, outs []Envelope[M]) (messages int64, sent bool, err error) {
	k := len(row.Words)
	sent = len(outs) > 0
	for j := range outs {
		env := &outs[j]
		if env.To < 0 || int(env.To) >= k {
			return 0, false, fmt.Errorf("core: machine %d sent to invalid machine %d", self, env.To)
		}
		if env.Words < 0 {
			return 0, false, fmt.Errorf("core: machine %d sent negative-size envelope", self)
		}
		env.From = self
		if env.To == self {
			continue
		}
		messages++
		row.Add(int(env.To), int64(env.Words))
	}
	return messages, sent, nil
}
