package tcp

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"kmachine/internal/rng"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/inmem"
	"kmachine/internal/transport/wire"
)

type testMsg struct {
	Tag int64
}

type testCodec struct{}

func (testCodec) Append(dst []byte, m testMsg) ([]byte, error) {
	return wire.AppendVarint(dst, m.Tag), nil
}

func (testCodec) Decode(src []byte) (testMsg, int, error) {
	v, n, err := wire.Varint(src)
	return testMsg{Tag: v}, n, err
}

// randomOuts builds a deterministic random traffic pattern, including
// self-addressed envelopes and silent machines.
func randomOuts(r *rng.RNG, k int) [][]transport.Envelope[testMsg] {
	outs := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		for n := r.Intn(20); n > 0; n-- {
			outs[i] = append(outs[i], transport.Envelope[testMsg]{
				From:  transport.MachineID(i),
				To:    transport.MachineID(r.Intn(k)),
				Words: int32(r.Intn(50)),
				Msg:   testMsg{Tag: int64(r.Uint64() >> 1)},
			})
		}
	}
	return outs
}

func TestTCPExchangeMatchesLoopback(t *testing.T) {
	const k = 5
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	lb := inmem.New[testMsg](k)

	rT, rL := rng.New(99), rng.New(99)
	for step := 0; step < 30; step++ {
		outsT := randomOuts(rT, k)
		outsL := randomOuts(rL, k)
		got, err := tr.Exchange(context.Background(), step, outsT)
		if err != nil {
			t.Fatalf("superstep %d: %v", step, err)
		}
		want, err := lb.Exchange(context.Background(), step, outsL)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k; j++ {
			if len(got[j]) == 0 && len(want[j]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("superstep %d inbox %d:\n tcp:    %+v\n inmem:  %+v", step, j, got[j], want[j])
			}
		}
	}
}

func TestTCPEmptySuperstep(t *testing.T) {
	const k = 3
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inboxes, err := tr.Exchange(context.Background(), 0, make([][]transport.Envelope[testMsg], k))
	if err != nil {
		t.Fatal(err)
	}
	for j, in := range inboxes {
		if len(in) != 0 {
			t.Errorf("machine %d got %d envelopes from an empty superstep", j, len(in))
		}
	}
}

// TestBrokenConnectionErrorsInsteadOfDeadlocking is the regression test
// for the error-cascade teardown: a connection failing mid-run must
// surface as a superstep error on every machine, not wedge the cluster
// in deadline-free reads.
func TestBrokenConnectionErrorsInsteadOfDeadlocking(t *testing.T) {
	const k = 3
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Exchange(context.Background(), 0, make([][]transport.Envelope[testMsg], k)); err != nil {
		t.Fatalf("healthy superstep: %v", err)
	}
	// Sever one data connection behind the transport's back.
	tr.eps[0].out[1].c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := tr.Exchange(context.Background(), 1, make([][]transport.Envelope[testMsg], k))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("superstep succeeded over a severed connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("superstep deadlocked on a severed connection")
	}
}

// TestExchangeDeadlineOnWedgedPeer is the regression test for the
// original hang: a peer that is alive but never ships its superstep
// batch must surface as a machine-attributed os.ErrDeadlineExceeded
// within the context deadline, not block forever.
func TestExchangeDeadlineOnWedgedPeer(t *testing.T) {
	base := runtime.NumGoroutine()
	eps, err := NewLoopbackMesh[testMsg](2, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range eps {
			e.Close()
		}
		testutil.NoLeakedGoroutines(t, base)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	// Machine 1 never runs the superstep: machine 0's read of its batch can
	// only end by deadline.
	_, _, err = eps[0].Exchange(ctx, 0, nil, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("superstep against a wedged peer succeeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire, want ~200ms", elapsed)
	}
	var me *transport.MachineError
	if !errors.As(err, &me) {
		t.Fatalf("error %v carries no machine attribution", err)
	}
	if me.Machine != 1 || me.Superstep != 0 {
		t.Errorf("attributed to machine %d superstep %d, want 1/0", me.Machine, me.Superstep)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("error %v does not wrap os.ErrDeadlineExceeded", err)
	}
}

// TestExchangeCancellationUnblocks: with no deadline at all, canceling
// the context must still tear the endpoint down and unblock the read.
func TestExchangeCancellationUnblocks(t *testing.T) {
	eps, err := NewLoopbackMesh[testMsg](2, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := eps[0].Exchange(ctx, 0, nil, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("superstep succeeded under a canceled context with a wedged peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the superstep")
	}
}

// TestCloseIdempotent: Close must be safe to call repeatedly and
// concurrently — the error cascade, context cancellation, and deferred
// cleanup all close the same endpoint.
func TestCloseIdempotent(t *testing.T) {
	eps, err := NewLoopbackMesh[testMsg](3, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, e := range eps {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(e *Endpoint[testMsg]) {
				defer wg.Done()
				e.Close()
			}(e)
		}
	}
	wg.Wait()
	for i, e := range eps {
		if got, again := e.Close(), e.Close(); got != again {
			t.Errorf("endpoint %d: repeated Close returned %v then %v", i, got, again)
		}
	}
}

// TestTransportCloseIdempotent mirrors the endpoint check on the
// cluster-side Transport, including Close after SeverMachine.
func TestTransportCloseIdempotent(t *testing.T) {
	tr, err := New[testMsg](3, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SeverMachine(1); err != nil {
		t.Fatalf("sever: %v", err)
	}
	tr.Close()
	tr.Close()
}
