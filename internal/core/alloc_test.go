package core

import (
	"testing"

	"kmachine/internal/obs"
)

// Allocation-regression fence for the persistent-worker engine: a
// steady-state superstep — workers stepping, sparse link accounting,
// count-then-place inbox assembly in the loopback transport — must not
// allocate. The test runs a k=8 cluster for many supersteps with a
// fixed traffic pattern and asserts the whole run stays under a budget
// that only covers one-time setup (engine state, transport buffers,
// machine closures, PerSuperstep growth); if a per-superstep allocation
// sneaks back into the hot path it blows the budget immediately
// (supersteps × k ≈ 1600 extra allocations).

type allocMsg struct{ payload [2]int64 }

func runSteadyCluster(tb testing.TB, supersteps int, drop bool, rec obs.Recorder) {
	tb.Helper()
	const k = 8
	c := NewCluster(Config{K: k, Bandwidth: 2, Seed: 7, DropPerSuperstep: drop, Recorder: rec},
		func(id MachineID) Machine[allocMsg] {
			buf := make([]Envelope[allocMsg], 0, 2)
			return MachineFunc[allocMsg](func(ctx *StepContext, inbox []Envelope[allocMsg]) ([]Envelope[allocMsg], bool) {
				if ctx.Superstep >= supersteps {
					return nil, true
				}
				// Fixed pattern: one envelope to each ring neighbour.
				buf = buf[:0]
				buf = append(buf,
					Envelope[allocMsg]{To: MachineID((int(ctx.Self) + 1) % ctx.K), Words: 3},
					Envelope[allocMsg]{To: MachineID((int(ctx.Self) + ctx.K - 1) % ctx.K), Words: 2},
				)
				return buf, false
			})
		})
	st, err := c.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if st.Supersteps != supersteps {
		tb.Fatalf("ran %d supersteps, want %d", st.Supersteps, supersteps)
	}
}

func TestSteadyStateSuperstepAllocBudget(t *testing.T) {
	const supersteps = 200
	// One run = setup + 200 steady supersteps. The recorded footprint of
	// the engine is ~60 allocations per run (cluster, engine state,
	// goroutine closures, transport buffers, machine buffers); 150
	// leaves headroom for toolchain drift while still failing hard if
	// even one allocation per superstep (200 extra) returns.
	const budget = 150.0
	got := testing.AllocsPerRun(3, func() {
		runSteadyCluster(t, supersteps, true, nil)
	})
	if got > budget {
		t.Errorf("steady-state run allocated %.0f times, budget %.0f — a per-superstep allocation crept into the engine hot path", got, budget)
	}

	// With PerSuperstep retention the only extra growth allowed is the
	// stats slice itself (amortised doubling).
	withStats := testing.AllocsPerRun(3, func() {
		runSteadyCluster(t, supersteps, false, nil)
	})
	if withStats > budget+16 {
		t.Errorf("PerSuperstep retention allocated %.0f times, budget %.0f", withStats, budget+16)
	}
}

// A live obs.Trace recorder must keep the hot path allocation-free too:
// Record writes into the trace's preallocated ring, so the only extra
// allocations allowed with the recorder ON are the engine's span
// bookkeeping — i.e. none. The trace is built once outside the measured
// runs so its ring doesn't count against the budget.
func TestSteadyStateSuperstepAllocBudgetWithRecorder(t *testing.T) {
	const supersteps = 200
	const budget = 150.0
	tr := obs.NewTrace(4096, 8)
	got := testing.AllocsPerRun(3, func() {
		runSteadyCluster(t, supersteps, true, tr)
	})
	if got > budget {
		t.Errorf("instrumented steady-state run allocated %.0f times, budget %.0f — recording spans must not allocate", got, budget)
	}
	if c := tr.Counters(); c.Total == 0 {
		t.Fatal("recorder saw no spans — the instrumented path did not run")
	}
}
