package node_test

import (
	"errors"
	"runtime"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/node"
)

// TestRunJobLocalSequentialJobs: the resident-mesh contract at the node
// layer — several sequential jobs on one standing mesh each produce
// Stats identical to a fresh single-run RunLocal, the mesh stays
// healthy across clean jobs, and nothing leaks.
func TestRunJobLocalSequentialJobs(t *testing.T) {
	const k = 5
	cfg := node.Config{K: k, Bandwidth: 2, Seed: 7}
	want, err := node.RunLocal(cfg, echoCodec{}, ringFactory(t, k))
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	lm, err := node.NewLocalMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	for job := uint64(1); job <= 3; job++ {
		got, err := node.RunJobLocal(lm, cfg, job, echoCodec{}, ringFactory(t, k))
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if got.Rounds != want.Rounds || got.Words != want.Words ||
			got.Messages != want.Messages || got.Supersteps != want.Supersteps {
			t.Fatalf("job %d stats diverge from single-run:\n job:  %+v\n want: %+v", job, got, want)
		}
		if !lm.Healthy() {
			t.Fatalf("mesh unhealthy after clean job %d", job)
		}
	}
	lm.Close()
	testutil.NoLeakedGoroutines(t, base)
}

// TestRunJobLocalFailurePoisonsMesh: an aborting job (machine panic)
// must fail that job, leave the mesh unhealthy, and a rebuilt mesh must
// carry the next job cleanly.
func TestRunJobLocalFailurePoisonsMesh(t *testing.T) {
	const k = 3
	cfg := node.Config{K: k, Bandwidth: 1, Seed: 1}
	lm, err := node.NewLocalMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	_, err = node.RunJobLocal(lm, cfg, 1, echoCodec{}, func(id core.MachineID) core.Machine[echoMsg] {
		return core.MachineFunc[echoMsg](func(ctx *core.StepContext, _ []core.Envelope[echoMsg]) ([]core.Envelope[echoMsg], bool) {
			if ctx.Self == 1 && ctx.Superstep == 1 {
				panic("boom")
			}
			return nil, false
		})
	})
	if err == nil {
		t.Fatal("panicking job succeeded")
	}
	if lm.Healthy() {
		t.Fatal("mesh still healthy after a failed job")
	}

	lm2, err := node.NewLocalMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	defer lm2.Close()
	if _, err := node.RunJobLocal(lm2, cfg, 2, echoCodec{}, ringFactory(t, k)); err != nil {
		t.Fatalf("job on rebuilt mesh: %v", err)
	}
}

// TestRunJobLocalSeverAttributesJob: a machine killed mid-job surfaces
// as a MachineError carrying the job ID on the standing-mesh path.
func TestRunJobLocalSeverAttributesJob(t *testing.T) {
	const k = 3
	cfg := node.Config{K: k, Bandwidth: 1, Seed: 1}
	lm, err := node.NewLocalMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	const jobID = 42
	_, err = node.RunJobLocal(lm, cfg, jobID, echoCodec{}, func(id core.MachineID) core.Machine[echoMsg] {
		return core.MachineFunc[echoMsg](func(ctx *core.StepContext, _ []core.Envelope[echoMsg]) ([]core.Envelope[echoMsg], bool) {
			if ctx.Self == 2 && ctx.Superstep == 2 {
				// Deterministic mid-job death: this machine's fabric goes
				// away under it; the survivors' reads attribute the loss.
				lm.Sever(2)
			}
			return nil, false
		})
	})
	if err == nil {
		t.Fatal("severed job succeeded")
	}
	var me *transport.MachineError
	if errors.As(err, &me) {
		if me.Job != jobID {
			t.Fatalf("MachineError carries job %d, want %d: %v", me.Job, jobID, err)
		}
	}
	// The failure may also surface unattributed from a machine whose
	// own sockets were severed; either way the mesh must be poisoned.
	if lm.Healthy() {
		t.Fatal("mesh still healthy after severed machine")
	}
}

// TestRunJobLocalRejectsBadJobs: job ID 0 and a k-mismatched config are
// refused before any endpoint attaches.
func TestRunJobLocalRejectsBadJobs(t *testing.T) {
	lm, err := node.NewLocalMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	if _, err := node.RunJobLocal(lm, node.Config{K: 2, Bandwidth: 1}, 0, echoCodec{}, ringFactory(t, 2)); err == nil {
		t.Fatal("job 0 accepted")
	}
	if _, err := node.RunJobLocal(lm, node.Config{K: 3, Bandwidth: 1}, 1, echoCodec{}, ringFactory(t, 3)); err == nil {
		t.Fatal("k mismatch accepted")
	}
	if !lm.Healthy() {
		t.Fatal("rejected submissions poisoned the mesh")
	}
}
