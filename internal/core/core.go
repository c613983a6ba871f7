// Package core implements the k-machine model of the paper (§1.1) as an
// executable substrate.
//
// A Cluster runs k Machine implementations that are pairwise connected by
// bidirectional point-to-point links. Computation advances in supersteps:
// in each superstep every machine consumes the messages delivered to it,
// performs free local computation, and emits messages for the next
// superstep. Every machine's Step executes in its own goroutine and the
// cluster synchronises them with a barrier — machines share nothing and
// communicate only through envelopes, CSP style.
//
// Cost model. The paper charges one round per B bits crossing a link, and
// a phase that puts L bits on the most loaded link costs ceil(L/B) rounds
// (this is precisely the quantity bounded in Lemma 13 and Lemmas 12/14).
// The cluster therefore accounts a superstep at
//
//	max(1, ceil(max-link-words / Bandwidth))
//
// rounds, where message sizes are counted in words (1 word = Θ(log n)
// bits, so Bandwidth in words corresponds to the paper's B = Θ(polylog n)
// bits). Measured round totals consequently reproduce the congestion
// behaviour the theorems describe: a machine that must receive R words
// needs at least R/(k-1)/Bandwidth rounds no matter how the senders
// schedule, and a single hot link serialises.
//
// Determinism. Machine i draws randomness from its own SplitMix64 stream
// seeded by (runSeed, i), and inboxes are assembled in machine order, so
// a run is a pure function of (machines, Config).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kmachine/internal/obs"
	"kmachine/internal/rng"
	"kmachine/internal/transport"
	"kmachine/internal/transport/inmem"
)

// MachineID identifies one of the k machines.
type MachineID = transport.MachineID

// Envelope is one message in flight. Words is its size in machine words
// for bandwidth accounting; From is stamped by the cluster.
type Envelope[M any] = transport.Envelope[M]

// Transport moves one superstep's batched envelopes between machines;
// see the contract in internal/transport. Cluster.RunOn accepts any
// implementation, and all word/round accounting happens in this package
// before envelopes reach the transport, so Stats are bit-identical on
// every substrate.
type Transport[M any] = transport.Transport[M]

// Machine is one of the k participants. Step consumes the envelopes
// delivered this superstep and returns the envelopes to send; done
// reports that this machine has no further work of its own (it may still
// be woken by incoming messages, and must then return done again once
// idle). The computation terminates when every machine reports done and
// no envelope is in flight.
//
// Buffer ownership: ctx and inbox are only valid for the duration of
// the Step call — the engine reuses the StepContext across supersteps
// and the transport recycles inbox storage (see the ownership rule on
// transport.Transport). A machine that needs an envelope beyond its
// Step must copy it. The returned out slice may be one the machine
// recycles: the engine and transport finish reading it before the next
// Step of the same machine begins.
type Machine[M any] interface {
	Step(ctx *StepContext, inbox []Envelope[M]) (out []Envelope[M], done bool)
}

// MachineFunc adapts a function to the Machine interface.
type MachineFunc[M any] func(ctx *StepContext, inbox []Envelope[M]) ([]Envelope[M], bool)

// Step implements Machine.
func (f MachineFunc[M]) Step(ctx *StepContext, inbox []Envelope[M]) ([]Envelope[M], bool) {
	return f(ctx, inbox)
}

// StepContext carries per-machine, per-superstep environment.
type StepContext struct {
	// Self is the executing machine's ID.
	Self MachineID
	// K is the number of machines.
	K int
	// Superstep is the zero-based superstep index.
	Superstep int
	// RNG is the machine's private random stream (paper: "each machine
	// has access to a private source of true random bits").
	RNG *rng.RNG
}

// Config configures a cluster run.
type Config struct {
	// K is the number of machines (k > 2 in the paper; we accept k >= 2,
	// and k = n gives the congested clique of Corollary 1).
	K int
	// Bandwidth is the per-link capacity in words per round (the paper's
	// B, measured in Θ(log n)-bit words). Must be >= 1.
	Bandwidth int
	// Seed derives all machine random streams.
	Seed uint64
	// MaxSupersteps aborts runaway algorithms; 0 means a generous default.
	MaxSupersteps int
	// DropPerSuperstep disables Stats.PerSuperstep retention. Long runs
	// execute millions of supersteps and the per-phase breakdown is the
	// only Stats component that grows with them; dropping it keeps a
	// run's memory footprint constant. All other Stats fields are
	// unaffected.
	DropPerSuperstep bool
	// Transport names the envelope substrate to run on; empty means the
	// in-memory loopback. Core only stores the name — algorithm Run
	// functions resolve it through OpenTransport with their message
	// codec, because building a non-loopback transport needs one.
	Transport transport.Kind
	// Context cancels the whole run: RunOn observes it between barrier
	// phases and hands it to every transport superstep, so canceling it
	// aborts the computation with a wrapped context error instead of
	// letting it run (or hang) to completion. nil means Background.
	// Cancellation cannot interrupt a machine's local Step — the model
	// makes local computation free — only the phases between barriers.
	Context context.Context
	// SuperstepTimeout bounds each superstep's transport phase: the
	// deadline covers the superstep's Exchange. A peer that crashes or wedges mid-superstep
	// surfaces as a machine-attributed error within the timeout instead
	// of blocking the cluster forever. 0 means no per-superstep
	// deadline; the happy-path behaviour (Stats, outputs, determinism)
	// is identical with or without one.
	SuperstepTimeout time.Duration
	// Checkpoint opts the run into per-superstep checkpointing and
	// in-run recovery (see checkpoint.go): every Checkpoint.Every
	// supersteps a consistent cut of all machines is captured after the
	// superstep's exchange into Checkpoint.Sink, and a run driven by
	// RunCheckpointed survives machine loss by restoring the latest cut
	// and replaying. Off by default (Every == 0): the superstep loop's
	// hook is a single nil check, keeping the zero-allocation steady
	// state and every golden hash unchanged. Checkpointing requires all
	// machines to implement Snapshotter.
	Checkpoint CheckpointPolicy
	// Recorder, when non-nil, receives wall-clock phase spans from the
	// run: per machine and superstep, a compute span (the Step call) and
	// a barrier span (waiting for the slowest machine), plus one
	// cluster-level exchange span per superstep; socket substrates
	// additionally record per-peer frame spans (RunOverWire installs the
	// recorder on transports implementing transport.TraceSink). The
	// recorder must tolerate concurrent Record calls and should not
	// allocate (obs.Trace satisfies both). nil — the default — keeps the
	// engine on its span-free path: the zero-allocation discipline and
	// the golden determinism hashes are fenced with the recorder off,
	// and Stats are identical either way (spans measure time, never
	// model cost).
	Recorder obs.Recorder
}

// Log2Words returns the machine word size for an n-vertex input under
// the 1 word = ceil(log2 n)+1 bits convention — the shared ceil-log2
// helper behind DefaultBandwidth and Bits.
func Log2Words(n int) int {
	w := 1
	for v := n; v > 1; v >>= 1 {
		w++
	}
	return w
}

// DefaultBandwidth returns the bandwidth used by the experiments for an
// n-vertex input: Θ(log n) words per round, i.e. B = Θ(log² n) bits,
// squarely in the paper's B = Θ(polylog n) regime.
func DefaultBandwidth(n int) int { return Log2Words(n) }

// SuperstepStat records one superstep's communication profile.
type SuperstepStat struct {
	// Rounds charged to this superstep: max(1, ceil(maxLink/Bandwidth)).
	Rounds int64
	// Messages and Words are totals across all links.
	Messages int64
	Words    int64
	// MaxLinkWords is the load of the most loaded directed link.
	MaxLinkWords int64
	// MaxRecvWords / MaxSentWords are the per-machine extremes.
	MaxRecvWords int64
	MaxSentWords int64
}

// Stats aggregates a run.
type Stats struct {
	// Rounds is the measured round complexity (the paper's T).
	Rounds int64
	// Supersteps is the number of barrier phases executed.
	Supersteps int
	// Messages and Words are run totals.
	Messages int64
	Words    int64
	// RecvWords[i] / SentWords[i] are per-machine totals; MaxRecvWords is
	// the maximum information (in words) any single machine received —
	// the quantity the General Lower Bound Theorem reasons about.
	RecvWords    []int64
	SentWords    []int64
	MaxRecvWords int64
	// PerSuperstep is the per-phase breakdown (Lemmas 12/14 experiments).
	PerSuperstep []SuperstepStat
	// Recoveries counts in-run machine replacements performed by
	// checkpoint recovery (RunCheckpointed). It is a property of this
	// run's execution, not of the computation: a recovered run's other
	// Stats fields and outputs are bit-identical to an undisturbed
	// run's, and Recoveries is excluded from checkpoint blobs so the
	// counter survives restores.
	Recoveries int
}

// Bits converts a word count to bits for an n-vertex input under the
// 1 word = ceil(log2 n)+1 bits convention.
func Bits(words int64, n int) int64 {
	return words * int64(Log2Words(n))
}

// LinkRow is one sender's row of a superstep's directed link-load
// matrix: Words[j] is what the sender put on its link to machine j.
// Only the entries listed in touched are nonzero, so charging and
// clearing a row cost O(links used), not O(k).
type LinkRow struct {
	Words   []int64
	touched []int32
}

// NewLinkRow returns an empty row for a k-machine cluster.
func NewLinkRow(k int) LinkRow {
	return LinkRow{Words: make([]int64, k), touched: make([]int32, 0, k)}
}

// Add charges w words to the link towards machine to; w <= 0 is a
// no-op.
func (r *LinkRow) Add(to int, w int64) {
	if w <= 0 {
		return
	}
	if r.Words[to] == 0 {
		r.touched = append(r.touched, int32(to))
	}
	r.Words[to] += w
}

// Reset zeroes the row.
func (r *LinkRow) Reset() {
	for _, j := range r.touched {
		r.Words[j] = 0
	}
	r.touched = r.touched[:0]
}

// Ledger is the home of the paper's §1.1 cost model, shared by the
// in-process engine and every node of the node runtime — which is what
// makes Stats bit-identical across substrates by construction. Rows[i]
// collects machine i's link loads for the current superstep (filled by
// ChargeOuts, or from node reports); Settle decides and prices the
// superstep and clears the rows. Reusing one Ledger across supersteps
// allocates nothing.
type Ledger struct {
	Rows             []LinkRow
	bandwidth        int
	dropPerSuperstep bool
	recv, sent       []int64
}

// NewLedger builds the accounting state of a k-machine run.
func NewLedger(k, bandwidth int, dropPerSuperstep bool) *Ledger {
	l := &Ledger{
		Rows:             make([]LinkRow, k),
		bandwidth:        bandwidth,
		dropPerSuperstep: dropPerSuperstep,
		recv:             make([]int64, k),
		sent:             make([]int64, k),
	}
	words, touched := make([]int64, k*k), make([]int32, k*k)
	for i := range l.Rows {
		l.Rows[i] = LinkRow{Words: words[i*k : (i+1)*k : (i+1)*k], touched: touched[i*k : i*k : (i+1)*k]}
	}
	return l
}

// Settle closes the superstep whose link loads the rows hold. A
// quiescent superstep — every machine done and nothing sent, not even
// to itself — ends the run for free and returns true; any other is
// priced by Charge.
func (l *Ledger) Settle(stats *Stats, messages int64, allDone, sent bool) (quiescent bool) {
	if allDone && !sent {
		return true
	}
	l.Charge(stats, messages)
	return false
}

// Charge prices the superstep whose link loads the rows hold —
// max(1, ceil(max-link-words / Bandwidth)) rounds, the quantity bounded
// in Lemma 13 and Lemmas 12/14 — together with its cross-machine
// message count, and folds it into stats. The sums and maxima are
// order-independent, so the result does not depend on which schedule
// or substrate filled the rows. The rows are cleared for the next
// superstep.
func (l *Ledger) Charge(stats *Stats, messages int64) {
	ss := SuperstepStat{Messages: messages}
	clear(l.recv)
	clear(l.sent)
	for i := range l.Rows {
		row := &l.Rows[i]
		for _, j := range row.touched {
			w := row.Words[j]
			row.Words[j] = 0
			ss.Words += w
			l.recv[j] += w
			l.sent[i] += w
			ss.MaxLinkWords = max(ss.MaxLinkWords, w)
		}
		row.touched = row.touched[:0]
	}
	for i := range l.recv {
		ss.MaxRecvWords = max(ss.MaxRecvWords, l.recv[i])
		ss.MaxSentWords = max(ss.MaxSentWords, l.sent[i])
		stats.RecvWords[i] += l.recv[i]
		stats.SentWords[i] += l.sent[i]
	}
	ss.Rounds = max(1, (ss.MaxLinkWords+int64(l.bandwidth)-1)/int64(l.bandwidth))
	stats.Rounds += ss.Rounds
	stats.Supersteps++
	stats.Messages += ss.Messages
	stats.Words += ss.Words
	if !l.dropPerSuperstep {
		stats.PerSuperstep = append(stats.PerSuperstep, ss)
	}
}

// Cluster coordinates k machines.
type Cluster[M any] struct {
	cfg      Config
	machines []Machine[M]
	rngs     []*rng.RNG
}

// ErrMaxSupersteps is returned when an algorithm fails to terminate
// within Config.MaxSupersteps barriers.
var ErrMaxSupersteps = errors.New("core: exceeded MaxSupersteps without termination")

// NewCluster builds a cluster; the factory is called once per machine.
func NewCluster[M any](cfg Config, factory func(id MachineID) Machine[M]) *Cluster[M] {
	if cfg.K < 2 {
		panic(fmt.Sprintf("core: need k >= 2 machines, got %d", cfg.K))
	}
	if cfg.Bandwidth < 1 {
		panic(fmt.Sprintf("core: need Bandwidth >= 1 word/round, got %d", cfg.Bandwidth))
	}
	if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = 1 << 20
	}
	c := &Cluster[M]{cfg: cfg}
	c.machines = make([]Machine[M], cfg.K)
	c.rngs = make([]*rng.RNG, cfg.K)
	for i := 0; i < cfg.K; i++ {
		c.machines[i] = factory(MachineID(i))
		c.rngs[i] = rng.NewStream(cfg.Seed, uint64(i))
	}
	return c
}

// K returns the number of machines.
func (c *Cluster[M]) K() int { return c.cfg.K }

// Machine returns machine i (for output collection after Run).
func (c *Cluster[M]) Machine(i MachineID) Machine[M] { return c.machines[int(i)] }

// Run executes supersteps until global quiescence (every machine done and
// no envelope in flight) and returns the communication statistics. It
// runs on the in-memory loopback transport; use RunOn for any other
// substrate (Config.Transport cannot be resolved here because building
// a non-loopback transport needs a message codec — see OpenTransport).
func (c *Cluster[M]) Run() (*Stats, error) {
	if c.cfg.Transport != transport.Default && c.cfg.Transport != transport.InMem {
		return nil, fmt.Errorf("core: Config.Transport=%q needs a codec; resolve it with OpenTransport and call RunOn", c.cfg.Transport)
	}
	t := inmem.New[M](c.cfg.K)
	defer t.Close()
	return c.RunOn(t)
}

// Finalize computes MaxRecvWords from the per-machine totals. Every
// runtime calls it on its way out, so normal and error returns alike
// carry consistent stats; it is idempotent.
func (s *Stats) Finalize() {
	for _, w := range s.RecvWords {
		if w > s.MaxRecvWords {
			s.MaxRecvWords = w
		}
	}
}
