package tcp

// Streaming conformance for the TCP mesh: driving the superstep API
// directly — BeginSuperstep, a mix of eager SendBatch calls and
// leftovers handed to FinishSuperstep — must assemble exactly the
// inboxes a lockstep loopback superstep produces for the same
// traffic, superstep after superstep. This pins the two invariants the
// engine's oracle relies on at the transport layer: one frame per
// (src,dst) pair regardless of when the batch was dispatched, and
// sender-ID-ordered inbox merge regardless of arrival order.

import (
	"context"
	"reflect"
	"testing"

	"kmachine/internal/rng"
	"kmachine/internal/transport"
	"kmachine/internal/transport/inmem"
)

// streamSuperstep runs one superstep on tr, streaming sender i's batch
// for peer j through SendBatch when eager(i, j) holds and handing every
// other envelope, self-addressed ones included, to FinishSuperstep.
func streamSuperstep(tr *Transport[testMsg], ctx context.Context, step int,
	outs [][]transport.Envelope[testMsg], eager func(i, j int) bool) ([][]transport.Envelope[testMsg], error) {
	k := len(outs)
	if err := tr.BeginSuperstep(ctx, step); err != nil {
		return nil, err
	}
	rest := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		perDest := make([][]transport.Envelope[testMsg], k)
		for _, env := range outs[i] {
			perDest[env.To] = append(perDest[env.To], env)
		}
		for j := 0; j < k; j++ {
			if j != i && eager(i, j) {
				if err := tr.SendBatch(transport.MachineID(i), transport.MachineID(j), perDest[j]); err != nil {
					return nil, err
				}
			} else {
				rest[i] = append(rest[i], perDest[j]...)
			}
		}
	}
	return tr.FinishSuperstep(ctx, step, rest)
}

func TestTCPStreamingMatchesLoopback(t *testing.T) {
	const k = 5
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	lb := inmem.New[testMsg](k)

	ctx := context.Background()
	rT, rL := rng.New(99), rng.New(99)
	for step := 0; step < 30; step++ {
		outsT := randomOuts(rT, k)
		outsL := randomOuts(rL, k)
		// Dispatch even-numbered peers eagerly mid-"compute", leave odd
		// peers and self-addressed envelopes for the finish — both paths
		// must land identically.
		got, err := streamSuperstep(tr, ctx, step, outsT, func(i, j int) bool { return j%2 == 0 })
		if err != nil {
			t.Fatalf("superstep %d: %v", step, err)
		}
		want, err := exchange(lb, ctx, step, outsL)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k; j++ {
			if len(got[j]) == 0 && len(want[j]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("superstep %d inbox %d:\n streamed: %+v\n lockstep: %+v", step, j, got[j], want[j])
			}
		}
	}
	if w := tr.WireStats(); w.FramesSent == 0 {
		t.Error("streamed supersteps shipped no frames — traffic bypassed the wire")
	}
}
