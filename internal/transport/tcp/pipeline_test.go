package tcp

// Tests for the persistent exchange pipeline: worker lifecycle (spawned
// once, parked between supersteps, retired on Close), bytes-on-wire
// accounting, and cross-version interop of the v2 batch format.

import (
	"context"
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

// TestPipelineWorkersPersistAcrossSupersteps pins the tentpole property
// of the rebuilt exchange path: the worker population is created by
// mesh construction, does NOT grow or churn across supersteps, and
// drains completely on Close. The previous engine spawned ~2k
// goroutines per endpoint per superstep; a regression to that shows up
// here as a goroutine-count delta between supersteps.
func TestPipelineWorkersPersistAcrossSupersteps(t *testing.T) {
	base := runtime.NumGoroutine()
	const k = 4
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		tr.Close()
		testutil.NoLeakedGoroutines(t, base)
	}()

	outs := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		outs[i] = []transport.Envelope[testMsg]{
			{From: transport.MachineID(i), To: transport.MachineID((i + 1) % k), Words: 1, Msg: testMsg{Tag: int64(i)}},
		}
	}
	if _, err := tr.Exchange(context.Background(), 0, outs); err != nil {
		t.Fatal(err)
	}
	// Population after the first superstep: transport drivers and
	// pipeline workers, all persistent.
	settled := runtime.NumGoroutine()
	for step := 1; step <= 50; step++ {
		if _, err := tr.Exchange(context.Background(), step, outs); err != nil {
			t.Fatalf("superstep %d: %v", step, err)
		}
	}
	// Workers park between supersteps rather than exiting, so the count
	// must not drift in either direction (a small grace for unrelated
	// runtime goroutines).
	if now := runtime.NumGoroutine(); now > settled+2 || now < settled-2 {
		t.Errorf("goroutine population drifted across supersteps: %d after superstep 0, %d after 50", settled, now)
	}
}

// TestWireStatsCountsFrames checks the physical-layer accounting: a
// healthy loopback mesh receives every byte it ships, the per-superstep
// frame count matches the protocol — exactly k·(k-1) data frames, one
// per directed pair and empty batches included, with no control-plane
// traffic — and byte totals grow monotonically with traffic. The
// subtest keeps the name of the (only) schedule it pins.
func TestWireStatsCountsFrames(t *testing.T) {
	const k = 3
	run := func(tr *Transport[testMsg], step int, outs [][]transport.Envelope[testMsg]) error {
		_, err := tr.Exchange(context.Background(), step, outs)
		return err
	}
	t.Run("lockstep", func(t *testing.T) {
		tr, err := New[testMsg](k, testCodec{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()

		if w := tr.WireStats(); w.FramesSent != 0 || w.BytesSent != 0 {
			t.Fatalf("fresh transport reports nonzero wire stats: %+v", w)
		}
		if err := run(tr, 0, make([][]transport.Envelope[testMsg], k)); err != nil {
			t.Fatal(err)
		}
		w0 := tr.WireStats()
		if w0.BytesSent != w0.BytesRecv || w0.FramesSent != w0.FramesRecv {
			t.Errorf("loopback mesh sent %d bytes/%d frames but received %d/%d",
				w0.BytesSent, w0.FramesSent, w0.BytesRecv, w0.FramesRecv)
		}
		const wantFrames = int64(k * (k - 1))
		if w0.FramesSent != wantFrames {
			t.Errorf("empty superstep shipped %d frames, want %d", w0.FramesSent, wantFrames)
		}

		outs := make([][]transport.Envelope[testMsg], k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if j == i {
					continue
				}
				outs[i] = append(outs[i], transport.Envelope[testMsg]{
					From: transport.MachineID(i), To: transport.MachineID(j), Words: 5, Msg: testMsg{Tag: 77},
				})
			}
		}
		if err := run(tr, 1, outs); err != nil {
			t.Fatal(err)
		}
		w1 := tr.WireStats()
		if w1.FramesSent != 2*wantFrames {
			t.Errorf("two supersteps shipped %d frames, want %d", w1.FramesSent, 2*wantFrames)
		}
		if w1.BytesSent-w0.BytesSent <= w0.BytesSent/2 {
			t.Errorf("loaded superstep (%d bytes) not measurably heavier than empty one (%d)",
				w1.BytesSent-w0.BytesSent, w0.BytesSent)
		}
	})
}

// TestWireV2ShipsFewerBytesThanV1 runs identical traffic over a v2 and
// a v1 transport and asserts both that the inboxes are bit-identical
// (the format is behaviourally invisible) and that v2 puts fewer bytes
// on the wire — the point of the format.
func TestWireV2ShipsFewerBytesThanV1(t *testing.T) {
	const k, steps = 4, 10
	run := func(version byte) (int64, [][][]transport.Envelope[testMsg]) {
		tr, err := NewWithVersion[testMsg](k, testCodec{}, version)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		r := rng.New(1234)
		var history [][][]transport.Envelope[testMsg]
		for step := 0; step < steps; step++ {
			inboxes, err := tr.Exchange(context.Background(), step, randomOuts(r, k))
			if err != nil {
				t.Fatalf("version 0x%02x superstep %d: %v", version, step, err)
			}
			snap := make([][]transport.Envelope[testMsg], k)
			for i := range inboxes {
				snap[i] = append([]transport.Envelope[testMsg](nil), inboxes[i]...)
			}
			history = append(history, snap)
		}
		return tr.WireStats().BytesSent, history
	}
	v2Bytes, v2Hist := run(wire.BatchV2)
	v1Bytes, v1Hist := run(wire.BatchV1)
	if !reflect.DeepEqual(v2Hist, v1Hist) {
		t.Fatal("v1 and v2 transports delivered different inboxes for identical traffic")
	}
	if v2Bytes >= v1Bytes {
		t.Errorf("v2 shipped %d bytes, v1 %d — the compact format saved nothing", v2Bytes, v1Bytes)
	}
}

// TestMixedWireVersionMesh runs a mesh whose endpoints speak different
// batch versions — machine 0 ships legacy v1 frames, the rest v2 — and
// asserts delivery matches the loopback transport exactly. This is the
// compatibility guarantee of the version byte: decoders dispatch per
// frame, so a cluster can be upgraded one machine at a time.
func TestMixedWireVersionMesh(t *testing.T) {
	const k = 4
	eps, err := NewLoopbackMesh[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	if err := eps[0].SetWireVersion(wire.BatchV1); err != nil {
		t.Fatal(err)
	}
	if err := eps[1].SetWireVersion(wire.BatchV2); err != nil {
		t.Fatal(err)
	}
	if err := eps[2].SetWireVersion(0x7f); err == nil {
		t.Error("SetWireVersion accepted an unknown version")
	}

	lb := inmem.New[testMsg](k)
	rT, rL := rng.New(55), rng.New(55)
	for step := 0; step < 10; step++ {
		outsT, outsL := randomOuts(rT, k), randomOuts(rL, k)
		got := make([][]transport.Envelope[testMsg], k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], _, errs[i] = eps[i].Exchange(context.Background(), step, nil, outsT[i])
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("superstep %d machine %d: %v", step, i, err)
			}
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
				t.Fatalf("superstep %d inbox %d:\n mixed mesh: %+v\n inmem:      %+v", step, j, got[j], want[j])
			}
		}
	}
}

// TestNewWithVersionRejectsUnknownVersion: a construction failure must
// surface as an error, not as a panic from closing half-built driver
// state.
func TestNewWithVersionRejectsUnknownVersion(t *testing.T) {
	if tr, err := NewWithVersion[testMsg](3, testCodec{}, 0x7e); err == nil {
		tr.Close()
		t.Fatal("NewWithVersion accepted an unknown wire version")
	}
}

// TestControlOpsBeforeConnectFailFast: an exchange on an unconnected
// endpoint must error, not panic into nil worker channels.
func TestControlOpsBeforeConnectFailFast(t *testing.T) {
	ep, err := Listen[testMsg](0, 3, "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, _, err := ep.Exchange(context.Background(), 0, nil, nil); err == nil {
		t.Error("superstep before Connect succeeded")
	}
}

// TestExchangeAfterCloseFailsFast: the closed guard must turn a
// superstep on a closed transport into an immediate error instead of
// signalling workers that no longer exist (which would hang the
// WaitGroup forever).
func TestExchangeAfterCloseFailsFast(t *testing.T) {
	const k = 3
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	done := make(chan error, 1)
	go func() {
		_, err := tr.Exchange(context.Background(), 0, make([][]transport.Envelope[testMsg], k))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("superstep on a closed transport succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("superstep on a closed transport hung")
	}
}
