package node

// White-box tests for the node runtime's checkpoint plane: per-node
// sections of core's cut, captured after each exchange that settles to
// continue and assembled into one checkpoint blob in a
// core.CheckpointSink, and the resume that restores every node from
// the sink's latest blob before the first superstep. The property under
// test is the same as everywhere in this repo: arming checkpoints
// changes nothing observable, and resuming from a sink reproduces the
// golden run bit for bit.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/testutil"
	"kmachine/internal/transport/wire"
)

// ckMachine is a deterministic ring machine whose state exercises all
// three restored quantities: the snapshot blob (sum), the RNG stream
// (each superstep's payload is a fresh draw), and the stored inbox
// (sums accumulate from delivered envelopes).
type ckMachine struct {
	self core.MachineID
	sum  int64
}

const ckLastStep = 9

func (m *ckMachine) Step(ctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
	for _, e := range inbox {
		m.sum += e.Msg.X
	}
	if ctx.Superstep >= ckLastStep {
		return nil, true
	}
	return []core.Envelope[failMsg]{{
		To:    core.MachineID((int(m.self) + 1) % ctx.K),
		Words: 1,
		Msg:   failMsg{X: int64(ctx.RNG.Uint64() % 1000)},
	}}, false
}

func (m *ckMachine) SnapshotState(dst []byte) ([]byte, error) {
	return wire.AppendVarint(dst, m.sum), nil
}

func (m *ckMachine) RestoreState(src []byte) error {
	c := &wire.Cursor{Src: src}
	m.sum = c.Varint()
	return c.Finish()
}

// runCkCluster executes the ring over RunLocal with the given
// checkpoint config, returning the Stats and every machine's final sum.
func runCkCluster(t *testing.T, k int, ck CheckpointConfig) (*core.Stats, []int64) {
	t.Helper()
	machines := make([]*ckMachine, k)
	cfg := Config{K: k, Bandwidth: 1, Seed: 77, Checkpoint: ck}
	stats, err := RunLocal(cfg, failCodec{}, func(id core.MachineID) core.Machine[failMsg] {
		machines[id] = &ckMachine{self: id}
		return machines[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]int64, k)
	for i, m := range machines {
		sums[i] = m.sum
	}
	return stats, sums
}

func sameCkStats(t *testing.T, label string, got, want *core.Stats) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Supersteps != want.Supersteps ||
		got.Messages != want.Messages || got.Words != want.Words ||
		got.MaxRecvWords != want.MaxRecvWords {
		t.Errorf("%s: stats diverge: got Rounds=%d Supersteps=%d Messages=%d Words=%d, want Rounds=%d Supersteps=%d Messages=%d Words=%d",
			label, got.Rounds, got.Supersteps, got.Messages, got.Words,
			want.Rounds, want.Supersteps, want.Messages, want.Words)
	}
}

// TestNodeCheckpointedRunMatchesGolden: arming the checkpoint plane on
// the node runtime must not perturb Stats or outputs, the sink must end the run holding a checkpoint of a
// pre-final superstep, and that blob must be byte-identical to the one
// core's engine writes for the same cut of the same computation — one
// format, one cut, on both runtimes.
func TestNodeCheckpointedRunMatchesGolden(t *testing.T) {
	t.Run("lockstep", checkCheckpointedRun)
}

func checkCheckpointedRun(t *testing.T) {
	base := runtime.NumGoroutine()
	const k = 4
	goldenStats, goldenSums := runCkCluster(t, k, CheckpointConfig{})
	sink := core.NewMemorySink(0)
	ckStats, ckSums := runCkCluster(t, k, CheckpointConfig{Every: 2, Sink: sink})
	sameCkStats(t, "checkpointed-vs-golden", ckStats, goldenStats)
	for i := range goldenSums {
		if ckSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d with checkpointing, %d without", i, ckSums[i], goldenSums[i])
		}
	}
	latest, blob, err := sink.Latest()
	if err != nil || latest < 0 {
		t.Fatalf("no checkpoint in the sink after a checkpointed run (latest %d, err %v)", latest, err)
	}
	if latest >= goldenStats.Supersteps-1 {
		t.Errorf("latest checkpoint at superstep %d, want a pre-final superstep of a %d-superstep run",
			latest, goldenStats.Supersteps)
	}
	// One Put per complete checkpoint (after supersteps 1, 3, 5, 7).
	if want := (goldenStats.Supersteps) / 2; sink.Puts() != want || sink.Bytes() == 0 {
		t.Errorf("sink counters: puts=%d bytes=%d, want %d complete checkpoints", sink.Puts(), sink.Bytes(), want)
	}

	coreSink := core.NewMemorySink(0)
	cluster := core.NewCluster(core.Config{K: k, Bandwidth: 1, Seed: 77,
		Checkpoint: core.CheckpointPolicy{Every: 2, Sink: coreSink}},
		func(id core.MachineID) core.Machine[failMsg] { return &ckMachine{self: id} })
	tr, err := core.OpenTransport[failMsg]("", k, failCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := cluster.RunCheckpointed(tr, failCodec{}, nil); err != nil {
		t.Fatal(err)
	}
	coreStep, coreBlob, _ := coreSink.Latest()
	if coreStep != latest || !bytes.Equal(coreBlob, blob) {
		t.Errorf("node checkpoint (superstep %d, %d bytes) differs from core's for the same cut (superstep %d, %d bytes)",
			latest, len(blob), coreStep, len(coreBlob))
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestNodeResumeFromStoreDeterministic: fresh machines resumed from a
// prior run's sink replay only the post-checkpoint tail, and the total
// Stats and final outputs are bit-identical to the golden run — the
// node-runtime half of the scheduler's resume-from-checkpoint protocol.
func TestNodeResumeFromStoreDeterministic(t *testing.T) {
	t.Run("lockstep", checkResumeFromStore)
}

func checkResumeFromStore(t *testing.T) {
	base := runtime.NumGoroutine()
	const k = 4
	goldenStats, goldenSums := runCkCluster(t, k, CheckpointConfig{})
	sink := core.NewMemorySink(0)
	runCkCluster(t, k, CheckpointConfig{Every: 2, Sink: sink})
	if step, _, _ := sink.Latest(); step < 0 {
		t.Fatal("no checkpoint to resume from")
	}
	resumedStats, resumedSums := runCkCluster(t, k, CheckpointConfig{Every: 2, Sink: sink, Resume: true})
	sameCkStats(t, "resumed-vs-golden", resumedStats, goldenStats)
	for i := range goldenSums {
		if resumedSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d after resume, golden %d", i, resumedSums[i], goldenSums[i])
		}
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestResumeWithEmptyStoreStartsFromZero: Resume against a sink with
// no checkpoint must degrade to a normal from-zero run — the path a job
// takes when its machine died before the first capture.
func TestResumeWithEmptyStoreStartsFromZero(t *testing.T) {
	const k = 4
	goldenStats, goldenSums := runCkCluster(t, k, CheckpointConfig{})
	resumedStats, resumedSums := runCkCluster(t, k, CheckpointConfig{Every: 2, Sink: core.NewMemorySink(0), Resume: true})
	sameCkStats(t, "empty-resume-vs-golden", resumedStats, goldenStats)
	for i := range goldenSums {
		if resumedSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d after empty-sink resume, golden %d", i, resumedSums[i], goldenSums[i])
		}
	}
}

// TestPersistedCheckpointSurvivesProcessDeath: with a core.FileSink,
// complete checkpoints land on disk as ckpt-*.kmcp files (at most two
// retained, no torn .tmp left behind), and a *fresh* sink over the
// directory — the state a restarted process has — resumes to the
// golden totals.
func TestPersistedCheckpointSurvivesProcessDeath(t *testing.T) {
	const k = 4
	dir := t.TempDir()
	goldenStats, goldenSums := runCkCluster(t, k, CheckpointConfig{})
	runCkCluster(t, k, CheckpointConfig{Every: 2, Sink: core.NewFileSink(dir)})
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.kmcp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(files) > 2 {
		t.Fatalf("persisted %d checkpoint files %v, want 1..2", len(files), files)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Fatalf("torn temp files left behind: %v", tmp)
	}
	resumedStats, resumedSums := runCkCluster(t, k, CheckpointConfig{Every: 2, Sink: core.NewFileSink(dir), Resume: true})
	sameCkStats(t, "disk-resumed-vs-golden", resumedStats, goldenStats)
	for i := range goldenSums {
		if resumedSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d after disk resume, golden %d", i, resumedSums[i], goldenSums[i])
		}
	}
}

// TestResumeSkipsCorruptCheckpointFiles: a truncated newest file must
// not poison recovery — the sink falls back to the next-newest intact
// one, and resuming from it still lands on the golden totals — and a
// checkpoint written for another k is never restored.
func TestResumeSkipsCorruptCheckpointFiles(t *testing.T) {
	const k = 4
	dir := t.TempDir()
	goldenStats, goldenSums := runCkCluster(t, k, CheckpointConfig{})
	runCkCluster(t, k, CheckpointConfig{Every: 2, Sink: core.NewFileSink(dir)})
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.kmcp"))
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v, %d files", err, len(files))
	}
	sort.Strings(files)
	newest := files[len(files)-1]
	newestStep, _, _ := core.NewFileSink(dir).Latest()
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	step, _, err := core.NewFileSink(dir).Latest()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) >= 2 {
		if step < 0 || step >= newestStep {
			t.Fatalf("Latest() = superstep %d with the newest (superstep %d) truncated, want the intact older checkpoint", step, newestStep)
		}
		resumedStats, resumedSums := runCkCluster(t, k, CheckpointConfig{Every: 2, Sink: core.NewFileSink(dir), Resume: true})
		sameCkStats(t, "fallback-resumed-vs-golden", resumedStats, goldenStats)
		for i := range goldenSums {
			if resumedSums[i] != goldenSums[i] {
				t.Errorf("machine %d sum %d after fallback resume, golden %d", i, resumedSums[i], goldenSums[i])
			}
		}
	} else if step >= 0 {
		t.Fatalf("Latest() accepted the truncated file as superstep %d", step)
	}
	_, err = RunLocal(Config{K: k + 1, Bandwidth: 1, Seed: 77,
		Checkpoint: CheckpointConfig{Every: 2, Sink: core.NewFileSink(dir), Resume: true}},
		failCodec{}, func(id core.MachineID) core.Machine[failMsg] { return &ckMachine{self: id} })
	if err == nil || !strings.Contains(err.Error(), "k=") {
		t.Fatalf("k=%d run resumed from a k=%d checkpoint: err %v, want a k-mismatch error", k+1, k, err)
	}
}

// TestStandaloneRunRejectsCheckpointing: a single standalone node can
// never assemble a complete checkpoint, so Run refuses the policy up
// front with one explicit error instead of running unprotected.
func TestStandaloneRunRejectsCheckpointing(t *testing.T) {
	_, err := Run(Config{ID: 0, K: 2, Bandwidth: 1, ListenAddr: "127.0.0.1:0",
		Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}, Checkpoint: CheckpointConfig{Every: 2}},
		core.Machine[failMsg](&ckMachine{}), failCodec{})
	if err == nil || !strings.Contains(err.Error(), "standalone Run cannot assemble a checkpoint") {
		t.Fatalf("standalone Run with Checkpoint.Every=2: err %v, want the explicit rejection", err)
	}
}
