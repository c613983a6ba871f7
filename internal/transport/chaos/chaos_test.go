package chaos_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/transport"
	"kmachine/internal/transport/chaos"
	"kmachine/internal/transport/inmem"
)

type msg struct{ X int64 }

// chatterFactory builds machines that keep one envelope per ring link in
// flight forever, so the run only ends when a fault ends it.
func chatterFactory(k int) func(core.MachineID) core.Machine[msg] {
	return func(id core.MachineID) core.Machine[msg] {
		return core.MachineFunc[msg](func(ctx *core.StepContext, inbox []core.Envelope[msg]) ([]core.Envelope[msg], bool) {
			return []core.Envelope[msg]{{To: core.MachineID((int(ctx.Self) + 1) % k), Words: 1}}, false
		})
	}
}

func TestKillAtReturnsAttributedError(t *testing.T) {
	const k, victim, step = 4, 2, 3
	tr := chaos.Wrap(inmem.New[msg](k), chaos.KillAt(victim, step))
	defer tr.Close()
	c := core.NewCluster(core.Config{K: k, Bandwidth: 1, Seed: 1, MaxSupersteps: 100}, chatterFactory(k))
	stats, err := c.RunOn(tr)
	if err == nil {
		t.Fatal("killed cluster terminated without error")
	}
	var me *transport.MachineError
	if !errors.As(err, &me) {
		t.Fatalf("error %v carries no machine attribution", err)
	}
	if me.Machine != victim || me.Superstep != step {
		t.Errorf("attributed to machine %d superstep %d, want %d/%d", me.Machine, me.Superstep, victim, step)
	}
	if !errors.Is(err, chaos.ErrKilled) {
		t.Errorf("error %v does not wrap ErrKilled", err)
	}
	// Accounting happens before envelopes reach the transport, so the
	// superstep the kill lands in is already in the partial stats.
	if stats == nil || stats.Supersteps != step+1 {
		t.Errorf("stats account %d supersteps, want %d (kill superstep included)", stats.Supersteps, step+1)
	}
}

func TestDelayOverrunsSuperstepTimeout(t *testing.T) {
	const k = 3
	// 30s of injected latency against a 50ms per-superstep deadline: the
	// run must fail within the deadline, not sleep the delay out.
	tr := chaos.Wrap(inmem.New[msg](k), chaos.DelayAt(1, 30*time.Second))
	defer tr.Close()
	c := core.NewCluster(core.Config{
		K: k, Bandwidth: 1, Seed: 1, MaxSupersteps: 100,
		SuperstepTimeout: 50 * time.Millisecond,
	}, chatterFactory(k))
	start := time.Now()
	_, err := c.RunOn(tr)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("delayed superstep did not error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline took %v to fire, want ~50ms", elapsed)
	}
}

func TestDropConnReattributesInnerFailure(t *testing.T) {
	const k, victim, step = 3, 1, 2
	inner := inmem.New[msg](k)
	// The severed "connection" of the loopback is the transport itself:
	// what matters is that the inner failure, whatever its shape, comes
	// back attributed to the victim chaos chose.
	tr := chaos.Wrap[msg](inner, chaos.DropConnAt(victim, step, func() { inner.Close() }))
	defer tr.Close()
	c := core.NewCluster(core.Config{K: k, Bandwidth: 1, Seed: 1, MaxSupersteps: 100}, chatterFactory(k))
	_, err := c.RunOn(tr)
	if err == nil {
		t.Fatal("severed transport did not error")
	}
	var me *transport.MachineError
	if !errors.As(err, &me) {
		t.Fatalf("inner error %v was not re-attributed", err)
	}
	if me.Machine != victim || me.Superstep != step {
		t.Errorf("attributed to machine %d superstep %d, want %d/%d", me.Machine, me.Superstep, victim, step)
	}
}

// TestHappyPathPassThrough: an inert chaos wrapper (no due faults) must
// be invisible — same Stats as the bare loopback.
func TestHappyPathPassThrough(t *testing.T) {
	const k = 4
	run := func(tr core.Transport[msg]) *core.Stats {
		t.Helper()
		factory := func(id core.MachineID) core.Machine[msg] {
			return core.MachineFunc[msg](func(ctx *core.StepContext, inbox []core.Envelope[msg]) ([]core.Envelope[msg], bool) {
				if ctx.Superstep >= 5 {
					return nil, true
				}
				return []core.Envelope[msg]{{To: core.MachineID((int(ctx.Self) + 1) % k), Words: 2}}, false
			})
		}
		c := core.NewCluster(core.Config{K: k, Bandwidth: 1, Seed: 9}, factory)
		stats, err := c.RunOn(tr)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain := run(inmem.New[msg](k))
	wrapped := run(chaos.Wrap(inmem.New[msg](k), chaos.KillAt(1, 10_000)))
	if plain.Rounds != wrapped.Rounds || plain.Words != wrapped.Words || plain.Supersteps != wrapped.Supersteps {
		t.Errorf("chaos wrapper changed the happy path: %+v vs %+v", wrapped, plain)
	}
}
