package kmachine_test

// Checkpoint/recovery acceptance suite (ROADMAP item 5): chaos-killed
// runs with checkpointing armed must COMPLETE — replacement transport,
// state restored from the latest consistent cut, missed supersteps
// replayed — with output and Stats bit-identical to an unkilled golden
// run, for every registry algorithm, on the loopback and the TCP
// substrate. Alongside sits the Snapshotter property test: restoring a
// snapshot into an arbitrarily dirty machine must reproduce the
// snapshotted machine's subsequent supersteps bit for bit.

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/routing"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/chaos"
	"kmachine/internal/transport/inmem"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/triangle"
)

// recoveredRun executes the algorithm under the checkpoint policy with
// a chaos fault killing recVictim at killStep (killStep < 0 runs
// fault-free — the golden arm). Recovery reopens fresh, fault-free
// transports of the same kind, so a recovered run is "replacement
// machine joins a rebuilt mesh". Returns the merged output and the
// Stats.
func recoveredRun[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, every, killStep int) (O, *core.Stats) {
	t.Helper()
	machines := make([]algo.Machine[M, L], k)
	for i := 0; i < k; i++ {
		v, err := in.MachineView(core.MachineID(i))
		if err != nil {
			t.Fatal(err)
		}
		if machines[i], err = a.NewMachine(v); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(failN), Seed: 13,
		SuperstepTimeout: 5 * time.Second}
	if every > 0 {
		cfg.Checkpoint = core.CheckpointPolicy{Every: every}
	}
	cluster := core.NewCluster(cfg, func(id core.MachineID) core.Machine[M] { return machines[id] })

	open := func() (core.Transport[M], error) {
		return core.OpenTransport[M](kind, k, a.Codec)
	}
	inner, err := open()
	if err != nil {
		t.Fatal(err)
	}
	tr := inner
	if killStep >= 0 {
		switch kind {
		case transport.InMem:
			tr = chaos.Wrap[M](inner, chaos.KillAt(recVictim, killStep))
		case transport.TCP:
			tt := inner.(*tcp.Transport[M])
			tr = chaos.Wrap[M](inner, chaos.DropConnAt(recVictim, killStep, func() {
				tt.SeverMachine(recVictim)
			}))
		default:
			t.Fatalf("unknown transport kind %q", kind)
		}
	}
	defer tr.Close()

	var stats *core.Stats
	var runErr error
	done := make(chan struct{})
	go func() {
		stats, runErr = cluster.RunCheckpointed(tr, a.Codec, open)
		close(done)
	}()
	testutil.WaitOrDump(t, done, 30*time.Second, "checkpointed cluster")
	if runErr != nil {
		t.Fatalf("checkpointed run (kill=%d): %v", killStep, runErr)
	}
	locals := make([]L, k)
	for i, m := range machines {
		locals[i] = m.Output()
	}
	return a.Merge(locals), stats
}

const recVictim = 3

// recCase is one registry algorithm's row of the recovery matrix: run
// golden and killed arms and compare.
type recCase struct {
	name string
	// killStep places the fault at a superstep the algorithm actually
	// reaches; the cadence of 2 puts the first cut after superstep 1's
	// exchange, so routing's superstep-0 kill lands before any periodic
	// capture and exercises the arm-time restart-from-zero image, while
	// the superstep-2 kills resume from a genuine mid-run checkpoint.
	killStep int
	check    func(t *testing.T, kind transport.Kind, killStep int)
}

// checkRecovered is the generic body of every matrix cell: the killed
// run's output must be deeply equal to the golden run's, the Stats
// bit-identical, and exactly one machine replacement performed.
func checkRecovered[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, killStep int) {
	t.Helper()
	base := runtime.NumGoroutine()
	const every = 2
	goldenOut, goldenStats := recoveredRun(t, a, in, k, kind, every, -1)
	gotOut, gotStats := recoveredRun(t, a, in, k, kind, every, killStep)
	if !reflect.DeepEqual(gotOut, goldenOut) {
		t.Errorf("recovered output diverges from unkilled golden run")
	}
	sameStats(t, "recovered-vs-golden", gotStats, goldenStats)
	if goldenStats.Recoveries != 0 {
		t.Errorf("golden run reports %d recoveries, want 0", goldenStats.Recoveries)
	}
	if gotStats.Recoveries != 1 {
		t.Errorf("recovered run reports %d recoveries, want 1", gotStats.Recoveries)
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestRecoveryRegistryWideBitIdentical kills machine 3 mid-run for
// every registry algorithm on both in-process substrates and requires
// the acceptance bar of the checkpoint design: the run completes with
// output hash and Stats identical to the unkilled golden.
func TestRecoveryRegistryWideBitIdentical(t *testing.T) {
	graphIn := failurePartition(t)
	edgeless := algo.EdgelessInput(algo.Problem{N: failN, K: failK, Seed: 11})
	sortIn := dsort.RandomInput(failN, failK, 11, dsort.UniformKeys)
	sortAlgo, err := dsort.Descriptor(sortIn, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []recCase{
		{"pagerank", 2, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, pagerank.Descriptor(failN, pagerank.AlgorithmOne(0.15)), graphIn, failK, kind, ks)
		}},
		{"conncomp", 2, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, conncomp.Descriptor(failN), graphIn, failK, kind, ks)
		}},
		{"triangle", 2, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, triangle.Descriptor(failK, triangle.AlgorithmOptions()), graphIn, failK, kind, ks)
		}},
		{"dsort", 2, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, sortAlgo, edgeless, failK, kind, ks)
		}},
		{"routing", 0, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, routing.Descriptor(failN), edgeless, failK, kind, ks)
		}},
	}
	for _, tc := range cases {
		for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
			t.Run(tc.name+"/"+string(kind), func(t *testing.T) {
				// The innermost level keeps the name of the (only)
				// superstep schedule.
				t.Run("lockstep", func(t *testing.T) { tc.check(t, kind, tc.killStep) })
			})
		}
	}
}

// TestRecoveryRestartFromZero arms a cadence beyond the kill superstep,
// so no periodic checkpoint exists when the machine dies: recovery must
// fall back to the arm-time superstep -1 image — an exact
// restart-from-zero — and still land on the golden output.
func TestRecoveryRestartFromZero(t *testing.T) {
	in := failurePartition(t)
	a := conncomp.Descriptor(failN)
	golden, goldenStats := recoveredRun(t, a, in, failK, transport.InMem, 1000, -1)
	got, gotStats := recoveredRun(t, a, in, failK, transport.InMem, 1000, failStep)
	if !reflect.DeepEqual(got, golden) {
		t.Errorf("restart-from-zero output diverges from golden")
	}
	sameStats(t, "restart-vs-golden", gotStats, goldenStats)
	if gotStats.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", gotStats.Recoveries)
	}
}

// TestRecoveryExhaustsMaxRecoveries: when every replacement transport
// also dies, the run must give up after the policy's bound with the
// attributed error — not retry forever.
func TestRecoveryExhaustsMaxRecoveries(t *testing.T) {
	in := failurePartition(t)
	a := conncomp.Descriptor(failN)
	machines := make([]algo.Machine[conncomp.Wire, conncomp.Local], failK)
	for i := 0; i < failK; i++ {
		m, err := a.NewMachine(in.View(core.MachineID(i)))
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	const maxRec = 2
	cfg := core.Config{K: failK, Bandwidth: core.DefaultBandwidth(failN), Seed: 13,
		SuperstepTimeout: 5 * time.Second,
		Checkpoint:       core.CheckpointPolicy{Every: 2, MaxRecoveries: maxRec}}
	cluster := core.NewCluster(cfg, func(id core.MachineID) core.Machine[conncomp.Wire] { return machines[id] })
	// Every transport — initial and replacements alike — kills the
	// victim at its first exchange after attach.
	openKilling := func() (core.Transport[conncomp.Wire], error) {
		return chaos.Wrap[conncomp.Wire](inmem.New[conncomp.Wire](failK), chaos.KillAt(recVictim, failStep)), nil
	}
	tr, _ := openKilling()
	defer tr.Close()
	stats, err := cluster.RunCheckpointed(tr, a.Codec, openKilling)
	if err == nil {
		t.Fatal("run with perpetually dying replacements terminated without error")
	}
	var me *transport.MachineError
	if !errors.As(err, &me) {
		t.Fatalf("exhaustion error %v carries no machine attribution", err)
	}
	if stats.Recoveries != maxRec {
		t.Errorf("recoveries = %d, want the policy bound %d", stats.Recoveries, maxRec)
	}
}

// snapshotRoundTrip is the per-algorithm body of the Snapshotter
// property test: snapshot every machine at its pristine state, dirty
// the machines by running the computation to completion, restore the
// pristine snapshots IN PLACE, and require (a) a re-snapshot is
// byte-identical to the original, and (b) a fresh run over the restored
// machines reproduces the golden output and Stats bit for bit — i.e.
// RestoreState(SnapshotState(m)) yields bit-identical subsequent
// supersteps no matter how dirty the restored object was.
func snapshotRoundTrip[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int) {
	t.Helper()
	run := func(machines []algo.Machine[M, L]) (O, *core.Stats) {
		cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(failN), Seed: 13}
		cluster := core.NewCluster(cfg, func(id core.MachineID) core.Machine[M] { return machines[id] })
		tr := inmem.New[M](k)
		defer tr.Close()
		stats, err := cluster.RunOn(tr)
		if err != nil {
			t.Fatal(err)
		}
		locals := make([]L, k)
		for i, m := range machines {
			locals[i] = m.Output()
		}
		return a.Merge(locals), stats
	}
	build := func() []algo.Machine[M, L] {
		machines := make([]algo.Machine[M, L], k)
		for i := 0; i < k; i++ {
			v, err := in.MachineView(core.MachineID(i))
			if err != nil {
				t.Fatal(err)
			}
			if machines[i], err = a.NewMachine(v); err != nil {
				t.Fatal(err)
			}
		}
		return machines
	}

	goldenOut, goldenStats := run(build())

	machines := build()
	pristine := make([][]byte, k)
	for i, m := range machines {
		snap, ok := any(m).(core.Snapshotter)
		if !ok {
			t.Fatalf("machine %d (%T) does not implement core.Snapshotter", i, m)
		}
		blob, err := snap.SnapshotState(nil)
		if err != nil {
			t.Fatal(err)
		}
		pristine[i] = blob
	}
	run(machines) // dirty every machine with a full computation
	for i, m := range machines {
		snap := any(m).(core.Snapshotter)
		if err := snap.RestoreState(pristine[i]); err != nil {
			t.Fatalf("restore machine %d: %v", i, err)
		}
		again, err := snap.SnapshotState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, pristine[i]) {
			t.Errorf("machine %d: re-snapshot after restore differs from the original blob", i)
		}
	}
	gotOut, gotStats := run(machines)
	if !reflect.DeepEqual(gotOut, goldenOut) {
		t.Errorf("run over restored machines diverges from golden output")
	}
	sameStats(t, "restored-vs-golden", gotStats, goldenStats)
}

// TestSnapshotRestoreRoundTripRegistryWide runs the Snapshotter
// property test for every registry algorithm's state codec.
func TestSnapshotRestoreRoundTripRegistryWide(t *testing.T) {
	graphIn := failurePartition(t)
	edgeless := algo.EdgelessInput(algo.Problem{N: failN, K: failK, Seed: 11})
	sortIn := dsort.RandomInput(failN, failK, 11, dsort.UniformKeys)
	sortAlgo, err := dsort.Descriptor(sortIn, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("pagerank", func(t *testing.T) {
		snapshotRoundTrip(t, pagerank.Descriptor(failN, pagerank.AlgorithmOne(0.15)), graphIn, failK)
	})
	t.Run("conncomp", func(t *testing.T) {
		snapshotRoundTrip(t, conncomp.Descriptor(failN), graphIn, failK)
	})
	t.Run("triangle", func(t *testing.T) {
		snapshotRoundTrip(t, triangle.Descriptor(failK, triangle.AlgorithmOptions()), graphIn, failK)
	})
	t.Run("dsort", func(t *testing.T) {
		snapshotRoundTrip(t, sortAlgo, edgeless, failK)
	})
	t.Run("routing", func(t *testing.T) {
		snapshotRoundTrip(t, routing.Descriptor(failN), edgeless, failK)
	})
}
