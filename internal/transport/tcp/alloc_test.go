package tcp

// Allocation-regression fence for the persistent exchange pipeline, in
// the spirit of internal/core/alloc_test.go: once the mesh is built and
// its buffers have grown to the working set, a steady-state superstep —
// signal the parked workers, encode/ship/receive/decode k(k-1) batch
// frames, wait for all k endpoints, merge the inboxes — must not
// allocate. The budget covers only the measured loop's incidental noise
// (runtime timer churn from connection deadlines); a per-superstep
// allocation sneaking back into the pipeline blows it immediately
// (supersteps × k × peers ≈ thousands of extra allocations).

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"kmachine/internal/obs"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

func TestSteadyStateExchangeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc fence is timing-free but runs hundreds of socket supersteps")
	}
	const k = 4
	const supersteps = 40
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Fixed ring traffic, reused outbox slices: the caller-side pattern
	// core's engine produces (outs stay caller-owned per the transport
	// contract).
	outs := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		outs[i] = []transport.Envelope[testMsg]{
			{From: transport.MachineID(i), To: transport.MachineID((i + 1) % k), Words: 3, Msg: testMsg{Tag: int64(i)}},
			{From: transport.MachineID(i), To: transport.MachineID((i + k - 1) % k), Words: 2, Msg: testMsg{Tag: -int64(i)}},
		}
	}
	step := 0
	run := func() {
		for s := 0; s < supersteps; s++ {
			if _, err := tr.Exchange(context.Background(), step, outs); err != nil {
				t.Fatal(err)
			}
			step++
		}
	}
	// One warm-up pass outside the measurement grows every recycled
	// buffer to its steady-state capacity (AllocsPerRun's own warm-up
	// call would also do it, but being explicit keeps the budget's
	// meaning obvious).
	run()

	got := testing.AllocsPerRun(3, run)
	// The pipeline itself is allocation-free; the only recurring cost is
	// runtime-internal (netpoll deadline timers when SetDeadline renews
	// them, occasional bufio growth on the first pass). Budget one
	// allocation per two supersteps — a real per-superstep, per-peer
	// regression costs >= supersteps × (k-1) ≈ 120.
	budget := float64(supersteps / 2)
	if got > budget {
		t.Errorf("steady-state exchange allocated %.0f times over %d supersteps, budget %.0f — a per-superstep allocation crept into the pipeline", got, supersteps, budget)
	}

	// Same fence with a live obs.Trace recorder: the pipeline workers
	// record a frame-write span per batch sent and frame-read +
	// frame-decode spans per batch received, all into the trace's
	// preallocated ring — so instrumentation must not move the budget.
	// The trace is built once, outside the measured runs.
	trace := obs.NewTrace(4096, k)
	tr.SetRecorder(trace)
	run() // re-warm with the recorder installed
	instrumented := testing.AllocsPerRun(3, run)
	if instrumented > budget {
		t.Errorf("instrumented exchange allocated %.0f times over %d supersteps, budget %.0f — recording frame spans must not allocate", instrumented, supersteps, budget)
	}
	if c := trace.Counters(); c.FramesSent == 0 || c.FramesRecv == 0 {
		t.Fatalf("recorder saw no frames (sent=%d recv=%d) — the instrumented path did not run", c.FramesSent, c.FramesRecv)
	}

	// Same fence on bare endpoints whose every frame carries a k-word
	// header, the shape of the node runtime's per-superstep report: one
	// persistent goroutine per endpoint, as each node drives its own.
	eps, err := NewLoopbackMesh[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	hdrs := make([][]byte, k)
	for i := range hdrs {
		for j := 0; j < k; j++ {
			hdrs[i] = wire.AppendUvarint(hdrs[i], uint64(1000*i+j))
		}
	}
	signal := make([]chan int, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range eps {
		signal[i] = make(chan int, 1)
		go func(i int) {
			for step := range signal[i] {
				_, got, err := eps[i].Exchange(context.Background(), step, hdrs[i], outs[i])
				for j := 0; err == nil && j < k; j++ {
					if !bytes.Equal(got[j], hdrs[j]) {
						err = fmt.Errorf("machine %d: header from %d = % x, want % x", i, j, got[j], hdrs[j])
					}
				}
				if err != nil && errs[i] == nil {
					errs[i] = err
				}
				wg.Done()
			}
		}(i)
	}
	defer func() {
		for _, ch := range signal {
			close(ch)
		}
	}()
	runEndpoints := func() {
		for s := 0; s < supersteps; s++ {
			wg.Add(k)
			for _, ch := range signal {
				ch <- step
			}
			wg.Wait()
			step++
		}
	}
	runEndpoints()
	headed := testing.AllocsPerRun(3, runEndpoints)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
	}
	if headed > budget {
		t.Errorf("endpoint exchange with k-word headers allocated %.0f times over %d supersteps, budget %.0f — carrying headers must not allocate", headed, supersteps, budget)
	}
}
