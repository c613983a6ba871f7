package tcp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"kmachine/internal/testutil"
	"kmachine/internal/transport"
)

// jobExchange runs one lockstep superstep concurrently on every
// endpoint (the per-machine halves of one mesh), machine i shipping
// header hdrs[i] (hdrs may be nil: no headers), and returns the
// per-machine inboxes, received headers and errors.
func jobExchange(eps []*Endpoint[testMsg], step int, hdrs [][]byte, outs [][]transport.Envelope[testMsg]) ([][]transport.Envelope[testMsg], [][][]byte, []error) {
	k := len(eps)
	inboxes := make([][]transport.Envelope[testMsg], k)
	got := make([][][]byte, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		var hdr []byte
		if hdrs != nil {
			hdr = hdrs[i]
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inboxes[i], got[i], errs[i] = eps[i].Exchange(context.Background(), step, hdr, outs[i])
		}(i)
	}
	wg.Wait()
	return inboxes, got, errs
}

// TestMeshReuseAcrossJobs is the standing-fabric contract: one socket
// mesh, several sequential jobs, each with its own attached endpoints —
// every job's traffic arrives intact, Detach leaves the mesh healthy,
// and no pipeline goroutine leaks across jobs. It also pins header
// carriage: on odd supersteps every machine ships a header, and each
// endpoint returns the k headers in sender order with its own at self;
// on even supersteps the frames are bare and every header is nil.
func TestMeshReuseAcrossJobs(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const k = 3
	ms, err := NewLoopbackSocketMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()

	for job := uint64(1); job <= 3; job++ {
		eps := make([]*Endpoint[testMsg], k)
		for i := 0; i < k; i++ {
			e, err := Attach[testMsg](ms[i], testCodec{}, job)
			if err != nil {
				t.Fatalf("job %d: attach machine %d: %v", job, i, err)
			}
			eps[i] = e
		}
		for step := 0; step < 3; step++ {
			outs := make([][]transport.Envelope[testMsg], k)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					outs[i] = append(outs[i], transport.Envelope[testMsg]{
						From: transport.MachineID(i), To: transport.MachineID(j),
						Words: 1, Msg: testMsg{Tag: int64(job)*1000 + int64(step)*10 + int64(i)},
					})
				}
			}
			var hdrs [][]byte
			if step%2 == 1 {
				hdrs = make([][]byte, k)
				for i := range hdrs {
					hdrs[i] = []byte(fmt.Sprintf("job %d superstep %d from %d", job, step, i))
				}
			}
			inboxes, got, errs := jobExchange(eps, step, hdrs, outs)
			for i := 0; i < k; i++ {
				if errs[i] != nil {
					t.Fatalf("job %d superstep %d machine %d: %v", job, step, i, errs[i])
				}
				for j, h := range got[i] {
					switch {
					case hdrs == nil && h != nil:
						t.Fatalf("job %d superstep %d machine %d: bare frame from %d returned header %q", job, step, i, j, h)
					case hdrs != nil && !bytes.Equal(h, hdrs[j]):
						t.Fatalf("job %d superstep %d machine %d: header %d = %q, want %q", job, step, i, j, h, hdrs[j])
					}
				}
				if hdrs != nil && &got[i][i][0] != &hdrs[i][0] {
					t.Fatalf("job %d superstep %d machine %d: own header is not the caller's slice", job, step, i)
				}
				if len(inboxes[i]) != k {
					t.Fatalf("job %d superstep %d machine %d: %d envelopes, want %d", job, step, i, len(inboxes[i]), k)
				}
				for _, env := range inboxes[i] {
					want := int64(job)*1000 + int64(step)*10 + int64(env.From)
					if env.Msg.Tag != want {
						t.Fatalf("job %d superstep %d machine %d: tag %d from %d, want %d",
							job, step, i, env.Msg.Tag, env.From, want)
					}
				}
			}
		}
		for _, e := range eps {
			e.Detach()
		}
		for i, m := range ms {
			if !m.Healthy() {
				t.Fatalf("job %d: mesh %d unhealthy after clean detach", job, i)
			}
		}
	}
	testutil.NoLeakedGoroutines(t, baseline)
}

// TestAttachJobMismatchDetected: endpoints attached for different jobs
// on the same mesh must reject each other's frames as attributed
// errors carrying the receiver's job ID — never decode them.
func TestAttachJobMismatchDetected(t *testing.T) {
	const k = 2
	ms, err := NewLoopbackSocketMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()
	e0, err := Attach[testMsg](ms[0], testCodec{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Attach[testMsg](ms[1], testCodec{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, _, errs := jobExchange([]*Endpoint[testMsg]{e0, e1}, 0, nil, make([][]transport.Envelope[testMsg], k))
	var sawMismatch bool
	for i, err := range errs {
		if err == nil {
			t.Fatalf("machine %d accepted a frame from another job", i)
		}
		var me *transport.MachineError
		if errors.As(err, &me) && me.Job != 0 && strings.Contains(err.Error(), "job") {
			sawMismatch = true
		}
	}
	if !sawMismatch {
		t.Fatalf("no job-stamped MachineError surfaced: %v / %v", errs[0], errs[1])
	}
	// The failure closed connections: the mesh is poisoned for reuse.
	if ms[0].Healthy() && ms[1].Healthy() {
		t.Fatal("both meshes still healthy after a job-mismatch failure")
	}
}

// TestAttachRejectsDeadMesh: attaching to a closed or never-connected
// mesh fails fast instead of wedging the first superstep.
func TestAttachRejectsDeadMesh(t *testing.T) {
	ms, err := NewLoopbackSocketMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	ms[0].Close()
	ms[1].Close()
	if _, err := Attach[testMsg](ms[0], testCodec{}, 1); err == nil {
		t.Fatal("attach to closed mesh succeeded")
	}
	lone, err := ListenMesh(0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	if _, err := Attach[testMsg](lone, testCodec{}, 1); err == nil {
		t.Fatal("attach to unconnected mesh succeeded")
	}
}
