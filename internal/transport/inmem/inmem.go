// Package inmem implements the in-process loopback Transport: the
// routing loop that used to be hard-wired into core.Cluster.Run,
// extracted behind the transport.Transport interface. It is the default
// substrate for simulations and tests: envelopes never leave the
// process and delivery is a pure slice shuffle.
//
// Exchange assembles inboxes count-then-place: one pass over the
// outboxes counts the per-destination envelopes, the k inboxes are then carved out of a single flat buffer,
// and a second pass places every envelope at its final position. The
// flat buffer and the inbox headers are double-buffered and recycled
// across supersteps (the transport ownership rule), so a steady-state
// superstep performs no allocation at all once the buffers have grown
// to the run's working set.
package inmem

import (
	"context"
	"fmt"
	"sync/atomic"

	"kmachine/internal/transport"
)

// exchangeBuf is one generation of recycled inbox storage.
type exchangeBuf[M any] struct {
	flat    []transport.Envelope[M]
	inboxes [][]transport.Envelope[M]
}

// Transport is the loopback implementation of transport.Transport.
type Transport[M any] struct {
	k      int
	closed bool

	// bufs are the two inbox-buffer generations: gen selects the one the
	// next Exchange assembles into, so the inboxes handed out by
	// the previous call — and any envelopes still aliasing them — stay
	// untouched while the current superstep is built.
	bufs [2]exchangeBuf[M]
	gen  int

	counts []int // per-destination envelope counts / placement cursors
	starts []int // prefix offsets of each inbox within flat

	// Counter-only observability (see Counters): the loopback ships no
	// physical bytes and records no frame spans, but counting its work
	// gives instrumented runs a shape to compare across substrates.
	// Atomics only because a debug plane may snapshot mid-run;
	// Exchange itself is serial.
	exchanges, envelopes atomic.Int64
}

// New returns a loopback transport for a k-machine cluster.
func New[M any](k int) *Transport[M] {
	if k < 2 {
		panic(fmt.Sprintf("inmem: need k >= 2 machines, got %d", k))
	}
	return &Transport[M]{
		k:      k,
		counts: make([]int, k),
		starts: make([]int, k+1),
	}
}

// Counters is the loopback's counter-only observability: how many
// supersteps completed and how many envelopes they routed. It is the
// loopback analogue of the socket substrate's frame counters — no
// bytes, no timings (a slice shuffle has nothing worth timing), just
// the shape — which is what lets substrate-equivalence tests assert
// trace-shape parity: on identical runs, Exchanges here equals the
// completed superstep count on tcp, and Envelopes the envelopes its
// batches carried.
type Counters struct {
	// Exchanges counts completed Exchange calls (one per superstep).
	Exchanges int64
	// Envelopes counts every envelope routed across all supersteps.
	Envelopes int64
}

// Counters returns a snapshot of the transport's counters. Safe to call
// at any time, including mid-run.
func (t *Transport[M]) Counters() Counters {
	return Counters{Exchanges: t.exchanges.Load(), Envelopes: t.envelopes.Load()}
}

// Exchange implements transport.Transport: count-then-place assembly
// of every sender's outbox. Iterating senders in machine order makes
// inbox assembly deterministic and sender-ID ordered. The loopback
// never blocks, so ctx is only checked on entry — a canceled run stops
// routing immediately but can never hang here.
func (t *Transport[M]) Exchange(ctx context.Context, step int, outs [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("inmem: superstep %d canceled: %w", step, err)
	}
	if t.closed {
		return nil, fmt.Errorf("inmem: Exchange on closed transport (superstep %d)", step)
	}
	if len(outs) != t.k {
		return nil, fmt.Errorf("inmem: got %d outboxes for a %d-machine cluster", len(outs), t.k)
	}

	counts := t.counts
	for i := range counts {
		counts[i] = 0
	}
	total := 0
	for i := range outs {
		for j := range outs[i] {
			to := outs[i][j].To
			if to < 0 || int(to) >= t.k {
				return nil, fmt.Errorf("inmem: envelope to invalid machine %d (superstep %d)", to, step)
			}
			counts[to]++
		}
		total += len(outs[i])
	}

	b := &t.bufs[t.gen]
	t.gen ^= 1
	if cap(b.flat) < total {
		b.flat = make([]transport.Envelope[M], total)
	}
	flat := b.flat[:total]
	if b.inboxes == nil {
		b.inboxes = make([][]transport.Envelope[M], t.k)
	}

	starts := t.starts
	starts[0] = 0
	for j := 0; j < t.k; j++ {
		starts[j+1] = starts[j] + counts[j]
		counts[j] = starts[j] // reuse counts as the placement cursors
	}
	for i := range outs {
		for j := range outs[i] {
			to := outs[i][j].To
			flat[counts[to]] = outs[i][j]
			counts[to]++
		}
	}
	for j := 0; j < t.k; j++ {
		// Cap-limit each inbox so an append by a misbehaving caller
		// cannot clobber its neighbour's envelopes.
		b.inboxes[j] = flat[starts[j]:starts[j+1]:starts[j+1]]
	}
	t.exchanges.Add(1)
	t.envelopes.Add(int64(total))
	return b.inboxes, nil
}

// Close implements transport.Transport.
func (t *Transport[M]) Close() error {
	t.closed = true
	return nil
}
