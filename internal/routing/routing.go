// Package routing implements the communication-balancing machinery of
// the paper's upper bounds (§1.3, §3):
//
//   - random routing (Lemma 13): when every machine sends O(x) messages
//     to uniformly random destinations (or receives O(x) from random
//     sources), direct links deliver everything in O((x log x)/k) rounds
//     whp. RandomRouteExperiment measures exactly this setting;
//   - Valiant two-hop routing: when destinations are fixed (not random) —
//     e.g. token counts addressed to the home machine of a vertex — a
//     message is first sent to a uniformly random intermediate machine
//     and then forwarded, so both hops have a random endpoint and Lemma 13
//     applies to each. Hop/Route/Deliver implement the pattern generically
//     for any payload type;
//   - randomized proxy computation (§1.3, §3.2): the designation rule that
//     decides which endpoint's home machine ships an edge to its random
//     proxy, including the heavy-vertex (degree >= 2k log n) broadcast
//     convention that keeps machines hosting high-degree vertices from
//     serialising.
package routing

import (
	"math"

	"kmachine/internal/core"
	"kmachine/internal/rng"
)

// Hop wraps a payload with its final destination for two-hop routing. A
// receiver inspects Final: if it names the receiver the payload is
// delivered, otherwise the receiver forwards it (second hop).
type Hop[M any] struct {
	Final core.MachineID
	Msg   M
}

// Route appends to out an envelope carrying msg towards final via a
// uniformly random intermediate machine drawn from r.
func Route[M any](out []core.Envelope[Hop[M]], r *rng.RNG, k int, final core.MachineID, words int32, msg M) []core.Envelope[Hop[M]] {
	mid := core.MachineID(r.Intn(k))
	return append(out, core.Envelope[Hop[M]]{
		To:    mid,
		Words: words,
		Msg:   Hop[M]{Final: final, Msg: msg},
	})
}

// RouteDirect appends an envelope addressed straight to final, in the
// same Hop framing (used by the ablation that disables two-hop routing,
// and for messages whose destination is already uniformly random).
func RouteDirect[M any](out []core.Envelope[Hop[M]], final core.MachineID, words int32, msg M) []core.Envelope[Hop[M]] {
	return append(out, core.Envelope[Hop[M]]{
		To:    final,
		Words: words,
		Msg:   Hop[M]{Final: final, Msg: msg},
	})
}

// Deliver partitions an inbox into payloads that have arrived (Final is
// the receiving machine) and second-hop forwards to emit this superstep.
func Deliver[M any](self core.MachineID, inbox []core.Envelope[Hop[M]]) (delivered []M, forwards []core.Envelope[Hop[M]]) {
	return DeliverInto(self, inbox, nil, nil)
}

// DeliverInto is Deliver appending into caller-provided scratch
// (typically machine-owned buffers passed as buf[:0]), so a machine
// stepping every superstep can recycle its delivery and forward slices
// instead of growing fresh ones each time. Payload and forward values
// are copied out of inbox, never aliased, so the scratch stays valid
// after the transport recycles the inbox storage.
func DeliverInto[M any](self core.MachineID, inbox []core.Envelope[Hop[M]], delivered []M, forwards []core.Envelope[Hop[M]]) ([]M, []core.Envelope[Hop[M]]) {
	for _, e := range inbox {
		if e.Msg.Final == self {
			delivered = append(delivered, e.Msg.Msg)
			continue
		}
		forwards = append(forwards, core.Envelope[Hop[M]]{
			To:    e.Msg.Final,
			Words: e.Words,
			Msg:   e.Msg,
		})
	}
	return delivered, forwards
}

// The *Buckets variants below are the bucketed counterparts of
// Route/RouteDirect/DeliverInto: instead of one interleaved out slice
// they append into a per-destination-machine bucket array (buckets[j]
// holds the envelopes addressed to machine j), which AppendBuckets
// then concatenates into a machine's outs. Appending a given call's
// envelope to bucket j preserves the program order of all envelopes
// addressed to j, and inbox assembly orders by (sender, per-sender
// program order) — so a bucketed machine produces byte-identical
// inboxes to its interleaved self. RNG draws happen at the same call
// sites in the same order, keeping determinism hashes unchanged.

// AppendBuckets appends every bucket to out in ascending destination
// order and returns the grown slice.
func AppendBuckets[M any](out []core.Envelope[M], buckets [][]core.Envelope[M]) []core.Envelope[M] {
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// RouteBuckets is Route into per-destination buckets: the envelope
// lands in the bucket of its (uniformly random) intermediate machine.
func RouteBuckets[M any](buckets [][]core.Envelope[Hop[M]], r *rng.RNG, k int, final core.MachineID, words int32, msg M) {
	mid := r.Intn(k)
	buckets[mid] = append(buckets[mid], core.Envelope[Hop[M]]{
		To:    core.MachineID(mid),
		Words: words,
		Msg:   Hop[M]{Final: final, Msg: msg},
	})
}

// RouteDirectBuckets is RouteDirect into per-destination buckets.
func RouteDirectBuckets[M any](buckets [][]core.Envelope[Hop[M]], final core.MachineID, words int32, msg M) {
	buckets[final] = append(buckets[final], core.Envelope[Hop[M]]{
		To:    final,
		Words: words,
		Msg:   Hop[M]{Final: final, Msg: msg},
	})
}

// DeliverIntoBuckets is DeliverInto with the second-hop forwards
// appended into per-destination buckets instead of one forwards slice.
func DeliverIntoBuckets[M any](self core.MachineID, inbox []core.Envelope[Hop[M]], delivered []M, buckets [][]core.Envelope[Hop[M]]) []M {
	for _, e := range inbox {
		if e.Msg.Final == self {
			delivered = append(delivered, e.Msg.Msg)
			continue
		}
		buckets[e.Msg.Final] = append(buckets[e.Msg.Final], core.Envelope[Hop[M]]{
			To:    e.Msg.Final,
			Words: e.Words,
			Msg:   e.Msg,
		})
	}
	return delivered
}

// HeavyDegreeThreshold is the §3.2 proxy-assignment cutoff 2·k·log n:
// vertices at or above it have their edge shipments delegated to the
// neighbours' home machines.
func HeavyDegreeThreshold(k, n int) int {
	t := int(math.Ceil(2 * float64(k) * math.Log2(float64(n)+1)))
	if t < 1 {
		t = 1
	}
	return t
}

// DesignatedEndpoint decides which endpoint's home machine ships edge
// {u,v} to its random proxy. All machines that know the heaviness flags
// evaluate the same pure function, so exactly one machine sends each
// edge:
//
//   - exactly one endpoint heavy: the light endpoint's home sends (the
//     heavy vertex "requests all other machines to designate the
//     respective edge proxies");
//   - both light or both heavy: a hash coin picks the endpoint (the
//     paper breaks such ties randomly).
func DesignatedEndpoint(u, v int32, uHeavy, vHeavy bool, seed uint64) int32 {
	switch {
	case uHeavy && !vHeavy:
		return v
	case vHeavy && !uHeavy:
		return u
	default:
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if rng.Mix(seed^(uint64(uint32(a))<<32|uint64(uint32(b))))&1 == 0 {
			return a
		}
		return b
	}
}
