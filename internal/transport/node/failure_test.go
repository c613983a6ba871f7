package node

// White-box failure tests for the standalone runtime: they drive
// runLoop directly over a real loopback-TCP mesh so a machine's
// "process" can be killed (its endpoint torn down) or wedged (its Step
// stalled past the deadline) at a chosen superstep, and assert the
// acceptance bar of the failure-hardening work: every surviving machine
// returns a non-nil machine-attributed error within SuperstepTimeout,
// and the teardown is goroutine-clean.

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

type failMsg struct{ X int64 }

type failCodec struct{}

func (failCodec) Append(dst []byte, m failMsg) ([]byte, error) {
	return wire.AppendVarint(dst, m.X), nil
}

func (failCodec) Decode(src []byte) (failMsg, int, error) {
	v, n, err := wire.Varint(src)
	return failMsg{X: v}, n, err
}

// runMeshWithFault spawns k runLoops over a fresh loopback mesh; the
// victim machine executes onVictimStep(eps) inside its Step at
// superstep failStep (before emitting). Machines chatter endlessly, so
// only the fault can end the run. Returns the k runLoop errors once
// every loop has exited; a cluster that fails to drain within 30s fails
// the test with a full goroutine dump — that is the hang this PR fixes.
func runMeshWithFault(t *testing.T, k, victim, failStep int, timeout time.Duration, onVictimStep func(eps []*tcp.Endpoint[failMsg])) []error {
	t.Helper()
	eps, err := tcp.NewLoopbackMesh[failMsg](k, failCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	factory := func(id core.MachineID) core.Machine[failMsg] {
		return core.MachineFunc[failMsg](func(ctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
			if int(ctx.Self) == victim && ctx.Superstep == failStep {
				onVictimStep(eps)
			}
			return []core.Envelope[failMsg]{{To: core.MachineID((int(ctx.Self) + 1) % k), Words: 1}}, false
		})
	}

	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{ID: i, K: k, Bandwidth: 1, Seed: 7, SuperstepTimeout: timeout}
			if verr := cfg.validate(); verr != nil {
				errs[i] = verr
				return
			}
			_, errs[i] = runLoop(cfg, eps[i], factory(core.MachineID(i)), nil, nil)
			if errs[i] != nil {
				eps[i].Close()
			}
		}(i)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	testutil.WaitOrDump(t, done, 30*time.Second, "cluster")
	return errs
}

// assertSurvivorsAttribute checks that every machine except the victim
// returned an error attributed to the victim.
func assertSurvivorsAttribute(t *testing.T, errs []error, victim int) {
	t.Helper()
	for i, err := range errs {
		if i == victim {
			// The victim's own loop fails on its severed sockets; the
			// shape of its error is unspecified but it must not succeed.
			if err == nil {
				t.Errorf("victim machine %d returned no error", i)
			}
			continue
		}
		if err == nil {
			t.Fatalf("surviving machine %d returned nil error after machine %d failed", i, victim)
		}
		var me *transport.MachineError
		if !errors.As(err, &me) {
			t.Errorf("machine %d error %v carries no machine attribution", i, err)
			continue
		}
		if int(me.Machine) != victim {
			t.Errorf("machine %d attributes the failure to machine %d, want %d (err: %v)", i, me.Machine, victim, err)
		}
	}
}

// TestCrashedNodeSurfacesOnAllSurvivors kills machine 2's endpoint —
// listener and every connection, exactly what its process dying looks
// like to the peers — at superstep 1 and requires every surviving
// machine to return an error attributed to machine 2, with no
// goroutines left behind.
func TestCrashedNodeSurfacesOnAllSurvivors(t *testing.T) {
	base := runtime.NumGoroutine()
	const k, victim, step = 4, 2, 1
	errs := runMeshWithFault(t, k, victim, step, 2*time.Second, func(eps []*tcp.Endpoint[failMsg]) {
		eps[victim].Close()
	})
	assertSurvivorsAttribute(t, errs, victim)
	testutil.NoLeakedGoroutines(t, base)
}

// TestWedgedNodeTimesOutOnSurvivors stalls machine 1 inside its Step
// for far longer than SuperstepTimeout: the survivors' reads must time
// out within the deadline — attributed to the wedged machine, wrapping
// os.ErrDeadlineExceeded — rather than wait the stall out.
func TestWedgedNodeTimesOutOnSurvivors(t *testing.T) {
	base := runtime.NumGoroutine()
	const (
		k, victim, step = 3, 1, 1
		timeout         = 300 * time.Millisecond
		stall           = 1500 * time.Millisecond
	)
	start := time.Now()
	errs := runMeshWithFault(t, k, victim, step, timeout, func([]*tcp.Endpoint[failMsg]) {
		time.Sleep(stall)
	})
	elapsed := time.Since(start)

	// The wedged machine itself eventually finishes its sleep and fails
	// on the by-then-severed mesh, so the victim slot may hold any
	// error; the survivors must all attribute the timeout to it.
	assertSurvivorsAttribute(t, errs, victim)
	deadlineSeen := false
	for i, err := range errs {
		if i != victim && errors.Is(err, os.ErrDeadlineExceeded) {
			deadlineSeen = true
		}
	}
	if !deadlineSeen {
		t.Errorf("no survivor reported os.ErrDeadlineExceeded; errors: %v", errs)
	}
	// The full join waits for the victim's stall to end (its goroutine
	// must exit for the leak check) but must not stack timeouts on top.
	if elapsed > stall+5*time.Second {
		t.Errorf("cluster took %v to drain, want ≈ the %v stall", elapsed, stall)
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestCanceledContextAbortsNodeRun: cancellation via Config.Context
// must abort a healthy, endlessly chattering cluster with an error on
// every machine and a goroutine-clean teardown.
func TestCanceledContextAbortsNodeRun(t *testing.T) {
	base := runtime.NumGoroutine()
	const k = 3
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := RunLocal(Config{K: k, Bandwidth: 1, Seed: 3, Context: ctx},
			failCodec{}, func(id core.MachineID) core.Machine[failMsg] {
				return core.MachineFunc[failMsg](func(sctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
					return []core.Envelope[failMsg]{{To: core.MachineID((int(sctx.Self) + 1) % k), Words: 1}}, false
				})
			})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled run terminated without error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not stop the cluster")
	}
	testutil.NoLeakedGoroutines(t, base)
}
