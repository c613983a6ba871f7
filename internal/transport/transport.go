// Package transport defines the substrate the k-machine cluster runs
// on: the envelope types that cross machine boundaries and the
// Transport interface that moves one superstep's batched envelopes
// between machines.
//
// The package deliberately knows nothing about algorithms, graphs, or
// cost accounting. The paper's round/word accounting (§1.1) lives in
// internal/core and is computed from the outgoing envelope batches
// *before* they are handed to a Transport, so Stats are bit-identical
// on every implementation — the Klauck–Nanongkai–Pandurangan–Robinson
// conversion results (arXiv:1311.6209) are exactly about porting
// message-passing algorithms across substrates without changing their
// communication cost, and the accounting split enforces that here.
//
// Implementations:
//
//   - transport/inmem — the in-process loopback used by simulations and
//     tests (the default);
//   - transport/tcp — each machine has its own listener and dials every
//     peer over real net.Conns, with per-superstep batch framing
//     (transport/wire): one frame per peer, empty ones included, is
//     what ends a superstep;
//   - transport/node — the standalone runtime that drives ONE machine
//     of a cluster whose peers live in other processes (cmd/kmnode).
package transport

import (
	"context"
	"fmt"

	"kmachine/internal/obs"
)

// MachineID identifies one of the k machines.
type MachineID int32

// Envelope is one message in flight. Words is its size in machine words
// for bandwidth accounting; From is stamped by the cluster before the
// envelope reaches a Transport.
type Envelope[M any] struct {
	From, To MachineID
	Words    int32
	Msg      M
}

// Transport moves one superstep's envelopes between the k machines.
// Every superstep is one Exchange call: Exchange(ctx, step, outs) ships
// outs[i] — machine i's envelopes, self-addressed ones included, already
// validated (To in range, Words >= 0) and stamped with From — waits
// until every batch of the superstep has been routed, and returns
// inboxes[j], the envelopes delivered to machine j for the next
// superstep.
//
// Inboxes are assembled in sender-ID order (self-addressed envelopes of
// machine j appear at position j of that order), preserving each
// sender's envelope order. Exchange is the superstep's barrier: it
// returns only after every machine's batches have been routed, so a
// superstep cannot overtake a straggler.
//
// Failure contract. ctx bounds the superstep's Exchange:
// implementations that can block on remote machines must observe ctx's
// deadline and cancellation so a crashed or wedged peer surfaces as an
// error within the deadline instead of an indefinite hang. When the
// failure can be attributed to a specific machine, the returned error
// wraps a *MachineError naming it and the superstep. A superstep is not
// restartable after an error: an implementation may tear down its
// resources to unblock peers (the tcp mesh does), so the caller must
// treat any error as fatal for the run and Close the transport.
//
// A Transport carries payloads verbatim and must preserve both the
// per-sender envelope order and the Words field — the accounting in
// core depends on it.
//
// Buffer ownership. A Transport may recycle inbox storage: the inboxes
// returned by Exchange (both the outer slice and the envelope storage
// it points into) remain valid only until the second-following Exchange
// call on the same transport. Implementations double-buffer so that the
// previous superstep's inboxes — and any outgoing envelopes that alias
// them, e.g. second-hop forwards — are never overwritten while the
// current superstep is assembled; callers that need an envelope beyond
// that window must copy it. Symmetrically, outs stays owned by the
// caller: a Transport must finish reading it before Exchange returns
// and must not retain or mutate it afterwards, so machines may recycle
// their outbox slices across supersteps.
type Transport[M any] interface {
	// Exchange ships one superstep's outboxes and returns the assembled
	// inboxes — the superstep's barrier.
	Exchange(ctx context.Context, step int, outs [][]Envelope[M]) (inboxes [][]Envelope[M], err error)

	// Close releases transport resources (listeners, connections) and
	// unblocks any I/O still pending on them. It is safe to call more
	// than once and from a goroutine other than the one driving the
	// superstep; no other method may be called after Close.
	Close() error
}

// MachineError attributes a distributed-runtime failure to the machine
// it was observed against and the superstep in which it surfaced. The
// tcp substrate wraps every per-peer receive/send failure (including
// os.ErrDeadlineExceeded from an expired superstep deadline) in one, so
// "peer j died" reaches the caller as a bounded, attributed error
// rather than an anonymous hang; the chaos transport synthesizes them
// for injected faults. Extract with errors.As; Unwrap exposes the
// underlying cause for errors.Is checks.
type MachineError struct {
	// Machine is the peer the failure is attributed to — the machine
	// that crashed, wedged, or was killed, not the one reporting.
	Machine MachineID
	// Superstep is the superstep in which the failure surfaced.
	Superstep int
	// Job, when nonzero, is the scheduler-assigned job the failure
	// surfaced in. Single-run transports leave it zero; job-attached
	// endpoints of a resident mesh stamp it so a multi-job daemon can
	// attribute the failure to exactly one submission.
	Job uint64
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *MachineError) Error() string {
	if e.Job != 0 {
		return fmt.Sprintf("machine %d failed in superstep %d (job %d): %v", e.Machine, e.Superstep, e.Job, e.Err)
	}
	return fmt.Sprintf("machine %d failed in superstep %d: %v", e.Machine, e.Superstep, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *MachineError) Unwrap() error { return e.Err }

// WireStats counts what a substrate physically shipped: whole frames
// and their actual byte sizes (length prefixes included). It is the
// measured counterpart of the paper's word-based cost model —
// Stats.Words counts model words before any transport touches an
// envelope, WireStats counts the bytes a real socket carried — and
// comparing the two quantifies both the encoding efficiency of the
// wire format and the protocol overhead (empty batches, job headers,
// the node runtime's frame reports) that the model abstracts away. The
// loopback transport ships nothing and reports zeros by not
// implementing WireMeter at all.
type WireStats struct {
	// FramesSent/FramesRecv count whole frames shipped and received.
	FramesSent, FramesRecv int64
	// BytesSent/BytesRecv are the frames' on-wire sizes: payload plus
	// length prefix.
	BytesSent, BytesRecv int64
	// PerPeer, when the substrate tracks it, breaks the totals down by
	// peer machine ID (slice index; the entry at an endpoint's own ID
	// stays zero — machines don't dial themselves). Aggregating
	// transports (the tcp cluster transport, chaos) sum per-endpoint
	// breakdowns, so entry j then reads "traffic exchanged with machine
	// j, summed over all endpoints". Nil when the substrate doesn't
	// track per-peer traffic.
	PerPeer []PeerWireStats
}

// PeerWireStats is one peer's share of an endpoint's wire traffic.
type PeerWireStats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
}

// Plus returns the field-wise sum, for aggregating per-endpoint
// counters into a cluster total. PerPeer breakdowns merge entry-wise
// (the result is sized to the longer of the two).
func (w WireStats) Plus(o WireStats) WireStats {
	sum := WireStats{
		FramesSent: w.FramesSent + o.FramesSent,
		FramesRecv: w.FramesRecv + o.FramesRecv,
		BytesSent:  w.BytesSent + o.BytesSent,
		BytesRecv:  w.BytesRecv + o.BytesRecv,
	}
	if len(w.PerPeer) > 0 || len(o.PerPeer) > 0 {
		n := len(w.PerPeer)
		if len(o.PerPeer) > n {
			n = len(o.PerPeer)
		}
		sum.PerPeer = make([]PeerWireStats, n)
		for i := range sum.PerPeer {
			var a, b PeerWireStats
			if i < len(w.PerPeer) {
				a = w.PerPeer[i]
			}
			if i < len(o.PerPeer) {
				b = o.PerPeer[i]
			}
			sum.PerPeer[i] = PeerWireStats{
				FramesSent: a.FramesSent + b.FramesSent,
				FramesRecv: a.FramesRecv + b.FramesRecv,
				BytesSent:  a.BytesSent + b.BytesSent,
				BytesRecv:  a.BytesRecv + b.BytesRecv,
			}
		}
	}
	return sum
}

// WireMeter is implemented by transports that count bytes-on-wire
// (transport/tcp; the chaos wrapper forwards to its inner transport).
// Callers discover it with a type assertion and treat absence as "this
// substrate ships no physical bytes".
type WireMeter interface {
	WireStats() WireStats
}

// TraceSink is implemented by transports that can record per-frame
// telemetry spans (obs.PhaseFrameWrite/Read/Decode) into a recorder —
// transport/tcp's pipeline workers do; the chaos wrapper forwards to
// its inner transport. Callers discover it with a type assertion
// (core.RunOverWire installs Config.Recorder this way) and treat
// absence as "this substrate has no frame-level detail to offer".
// SetRecorder must be called before the first superstep; the transport
// reads the recorder without synchronisation on its hot paths.
type TraceSink interface {
	SetRecorder(r obs.Recorder)
}

// Kind names a Transport implementation for configuration surfaces
// (core.Config.Transport, kmachine.RunConfig.Transport).
type Kind string

const (
	// Default resolves to InMem.
	Default Kind = ""
	// InMem is the in-process loopback transport.
	InMem Kind = "inmem"
	// TCP runs every machine as its own listener+dialer over loopback
	// TCP connections.
	TCP Kind = "tcp"
	// TCPWireV1 is TCP shipping the legacy v1 batch encoding instead of
	// the compact v2 — the A/B surface that lets experiments measure
	// the v2 format's bytes-on-wire savings on otherwise identical
	// runs. Stats are bit-identical across wire versions by
	// construction; only WireStats differ.
	TCPWireV1 Kind = "tcp/wire-v1"
)
