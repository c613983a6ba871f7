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
	"reflect"
	"runtime"
	"strings"
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
	_, errs := runNodes(t, k, timeout, func(eps []*tcp.Endpoint[failMsg], id core.MachineID) core.Machine[failMsg] {
		return core.MachineFunc[failMsg](func(ctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
			if int(ctx.Self) == victim && ctx.Superstep == failStep {
				onVictimStep(eps)
			}
			return []core.Envelope[failMsg]{{To: core.MachineID((int(ctx.Self) + 1) % k), Words: 1}}, false
		})
	})
	return errs
}

// runNodes runs k runLoops over a fresh loopback mesh, machine i built
// by factory(eps, i), and returns every node's Stats and error once all
// have exited.
func runNodes(t *testing.T, k int, timeout time.Duration, factory func([]*tcp.Endpoint[failMsg], core.MachineID) core.Machine[failMsg]) ([]*core.Stats, []error) {
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

	stats := make([]*core.Stats, k)
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
			stats[i], errs[i] = runLoop(cfg, eps[i], factory(eps, core.MachineID(i)), nil, nil)
			if errs[i] != nil {
				eps[i].Close()
			}
		}(i)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	testutil.WaitOrDump(t, done, 30*time.Second, "cluster")
	return stats, errs
}

// TestEveryNodeDecidesAlone: with no coordinator, each node folds the k
// frame reports into its own Stats and decides termination itself. So
// every node of a clean run must return exactly core's Stats, and a Step
// error on one machine must end every node with the one same error.
func TestEveryNodeDecidesAlone(t *testing.T) {
	const k = 4
	// Uneven traffic for four supersteps, self-addressed envelopes
	// included, then silence.
	step := func(ctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
		s, self := ctx.Superstep, int(ctx.Self)
		if s >= 4 {
			return nil, true
		}
		return []core.Envelope[failMsg]{
			{To: core.MachineID((self + s + 1) % k), Words: int32(self + 3*s), Msg: failMsg{X: int64(s)}},
			{To: ctx.Self, Words: 5},
		}, s >= 2
	}
	want, err := core.NewCluster(core.Config{K: k, Bandwidth: 1, Seed: 7}, func(core.MachineID) core.Machine[failMsg] {
		return core.MachineFunc[failMsg](step)
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	stats, errs := runNodes(t, k, 10*time.Second, func([]*tcp.Endpoint[failMsg], core.MachineID) core.Machine[failMsg] {
		return core.MachineFunc[failMsg](step)
	})
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(stats[i], want) {
			t.Errorf("node %d Stats differ from core's:\n node: %+v\n core: %+v", i, stats[i], want)
		}
	}
	if stats[0] == stats[1] {
		t.Error("nodes 0 and 1 share one Stats value")
	}

	_, errs = runNodes(t, k, 10*time.Second, func(_ []*tcp.Endpoint[failMsg], id core.MachineID) core.Machine[failMsg] {
		return core.MachineFunc[failMsg](func(ctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
			if id == 2 && ctx.Superstep == 1 {
				panic("boom")
			}
			return step(ctx, inbox)
		})
	})
	for i, err := range errs {
		if err == nil || !strings.HasPrefix(err.Error(), "machine 2: ") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("node %d returned %v, want machine 2's Step error", i, err)
		}
		if err.Error() != errs[0].Error() {
			t.Errorf("node %d returned %q, node 0 %q", i, err, errs[0])
		}
	}
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

// TestSettleBlamesBadReport: a peer frame whose report is missing or
// malformed must fail the superstep with a MachineError naming that
// peer, never be folded into the Stats.
func TestSettleBlamesBadReport(t *testing.T) {
	const k, step = 3, 4
	good := (&report{linkWords: make([]int64, k)}).appendEncode(nil, step)
	for name, bad := range map[string][]byte{
		"missing":         nil,
		"truncated":       good[:2],
		"other superstep": (&report{linkWords: make([]int64, k)}).appendEncode(nil, step+1),
		"short row":       (&report{linkWords: make([]int64, k-1)}).appendEncode(nil, step),
	} {
		stats := &core.Stats{RecvWords: make([]int64, k), SentWords: make([]int64, k)}
		_, err := settle(0, step, [][]byte{good, bad, good}, make([]report, k), core.NewLedger(k, 1, false), stats)
		var me *transport.MachineError
		if !errors.As(err, &me) || me.Machine != 1 || me.Superstep != step {
			t.Errorf("%s report: got %v, want a MachineError naming machine 1 in superstep %d", name, err, step)
		}
	}
}
