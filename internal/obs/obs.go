// Package obs is the observability layer of the k-machine runtime: a
// zero-steady-state-allocation span recorder threaded through the
// superstep engine (internal/core), the standalone node runtime
// (internal/transport/node), and the socket transport's pipeline
// workers (internal/transport/tcp), plus the exporters that turn the
// recorded spans into something a human can read — a Chrome trace-event
// JSON timeline (chrome://tracing, Perfetto) and per-superstep phase
// summaries.
//
// The paper's model (§1.1) charges rounds and words; this package
// measures the quantity the model deliberately abstracts away:
// wall-clock time, broken down by phase. Every superstep decomposes
// into compute (machine Step calls), barrier (waiting for the slowest
// machine), and exchange (the transport moving the batched envelopes),
// and on the socket substrate the exchange further decomposes into
// per-peer frame writes, reads (mostly stall: waiting for the peer's
// data), and decodes. Comparing the measured phase shares against the
// model's round counts is what turns "the microbench is 1.4x faster
// but end-to-end only 1.05x" from a mystery into a timeline.
//
// Recording discipline. Recorders are handed to the runtime as a
// Config knob (core.Config.Recorder, node.Config.Recorder,
// kmachine.RunConfig.Recorder); nil means no instrumentation and the
// engine's no-op fast path — the alloc fences in core and tcp pin that
// path at zero allocations per superstep. A non-nil recorder must be
// safe for concurrent Record calls (engine workers, pipeline writers
// and readers all record from their own goroutines) and must not
// retain the Span beyond the call. The Trace implementation in this
// package preallocates a fixed ring at construction, so steady-state
// recording allocates nothing either.
package obs

import "time"

// Phase labels one kind of recorded span.
type Phase uint8

const (
	// PhaseCompute is one machine's Step call: the model's "free" local
	// computation, measured.
	PhaseCompute Phase = iota
	// PhaseBarrier is synchronisation wait, recorded by the in-process
	// engine only: the time between a machine finishing its Step and
	// the superstep barrier releasing (i.e. waiting for the slowest
	// machine). The node runtime has no barrier; its wait shows inside
	// the exchange and the per-peer frame-read spans.
	PhaseBarrier
	// PhaseExchange is the transport moving one superstep's batched
	// envelopes. The in-process engine records it once per superstep as
	// a cluster-level span (Machine = -1); the node runtime records it
	// per machine, since each node performs its own exchange.
	PhaseExchange
	// PhaseFrameWrite is one tcp writer worker encoding and shipping
	// one peer's batch frame (Peer names the destination, Bytes the
	// on-wire frame size).
	PhaseFrameWrite
	// PhaseFrameRead is one tcp reader worker blocking for its peer's
	// batch frame. The duration is dominated by stall — waiting for the
	// peer to produce and ship its data — which is exactly why it is
	// recorded: per-peer read stalls are where a slow machine shows up
	// on everyone else's timeline.
	PhaseFrameRead
	// PhaseFrameDecode is the decode of a received batch frame into
	// envelope scratch — the CPU part of the read path, split from the
	// stall so the two are distinguishable.
	PhaseFrameDecode

	// NumPhases is the number of defined phases (for table sizing).
	NumPhases = 6
)

// String returns the phase's stable lowercase name (used in trace
// exports, summaries, and expvar keys — do not change casually).
func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseBarrier:
		return "barrier"
	case PhaseExchange:
		return "exchange"
	case PhaseFrameWrite:
		return "frame-write"
	case PhaseFrameRead:
		return "frame-read"
	case PhaseFrameDecode:
		return "frame-decode"
	}
	return "unknown"
}

// Span is one recorded phase interval. It is a plain value — recording
// one allocates nothing, and recorders must not retain it beyond the
// Record call (copy into owned storage, as Trace's ring does).
type Span struct {
	// Start is the span's start timestamp in nanoseconds since the
	// process epoch (Now's zero); Dur its duration in nanoseconds.
	// Timestamps are monotonic, so spans from different goroutines of
	// one process order correctly.
	Start, Dur int64
	// Machine is the executing machine's ID; -1 means cluster-level
	// (the in-process engine's exchange span).
	Machine int32
	// Peer is the remote machine for per-peer frame phases; -1
	// otherwise.
	Peer int32
	// Superstep is the zero-based superstep the span belongs to.
	Superstep int32
	// Phase labels what the interval covers.
	Phase Phase
	// Bytes is the on-wire frame size for frame phases; 0 otherwise.
	Bytes int32
}

// End returns Start + Dur.
func (s Span) End() int64 { return s.Start + s.Dur }

// Recorder receives phase spans from the runtime. Implementations must
// be safe for concurrent Record calls — engine workers and transport
// pipeline workers record from their own goroutines — and should not
// allocate on the record path: the engine's zero-alloc discipline
// extends to instrumented runs (see the alloc fences in core and tcp).
type Recorder interface {
	Record(s Span)
}

// epoch anchors Now: all spans of a process share one monotonic zero.
var epoch = time.Now()

// Now returns the current monotonic timestamp in nanoseconds since the
// process epoch — the clock every recorded Span uses. It allocates
// nothing.
func Now() int64 { return int64(time.Since(epoch)) }
