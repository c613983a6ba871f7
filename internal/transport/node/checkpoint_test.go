package node

// White-box tests for the standalone runtime's checkpoint plane: the
// per-machine KMNP parts written into a CheckpointStore at the
// coordinator's continue verdict, and the ctrlResume round that aligns
// a resumed cluster on the restored superstep. The property under test
// is the same as everywhere in this repo: arming checkpoints changes
// nothing observable, and resuming from a store reproduces the golden
// run bit for bit.

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/testutil"
	"kmachine/internal/transport/wire"
)

// ckMachine is a deterministic ring machine whose state exercises all
// three restored quantities: the snapshot blob (sum), the RNG stream
// (each superstep's payload is a fresh draw), and the stored inbox
// (sums accumulate from delivered envelopes). Under Streaming its one
// envelope goes through core.EmitBatch, and streamed counts how many
// batches the bound emitter accepted.
type ckMachine struct {
	self     core.MachineID
	sum      int64
	streamed int
}

const ckLastStep = 9

func (m *ckMachine) Step(ctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
	for _, e := range inbox {
		m.sum += e.Msg.X
	}
	if ctx.Superstep >= ckLastStep {
		return nil, true
	}
	batch := []core.Envelope[failMsg]{{
		To:    core.MachineID((int(m.self) + 1) % ctx.K),
		Words: 1,
		Msg:   failMsg{X: int64(ctx.RNG.Uint64() % 1000)},
	}}
	if core.EmitBatch(ctx, batch[0].To, batch) {
		m.streamed++
		return nil, false
	}
	return batch, false
}

func (m *ckMachine) SnapshotState(dst []byte) ([]byte, error) {
	return wire.AppendVarint(dst, m.sum), nil
}

func (m *ckMachine) RestoreState(src []byte) error {
	c := &wire.Cursor{Src: src}
	m.sum = c.Varint()
	return c.Finish()
}

// runCkCluster executes the lockstep ring over RunLocal with the given
// checkpoint config, returning the Stats and every machine's final sum.
func runCkCluster(t *testing.T, k int, ck CheckpointConfig) (*core.Stats, []int64) {
	t.Helper()
	stats, sums, _ := runCkClusterSched(t, k, false, ck)
	return stats, sums
}

// runCkClusterSched is runCkCluster on either schedule; it also returns
// how many batches the machines streamed through SendBatch.
func runCkClusterSched(t *testing.T, k int, streaming bool, ck CheckpointConfig) (*core.Stats, []int64, int) {
	t.Helper()
	machines := make([]*ckMachine, k)
	cfg := Config{K: k, Bandwidth: 1, Seed: 77, Streaming: streaming, Checkpoint: ck}
	stats, err := RunLocal(cfg, failCodec{}, func(id core.MachineID) core.Machine[failMsg] {
		machines[id] = &ckMachine{self: id}
		return machines[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]int64, k)
	streamed := 0
	for i, m := range machines {
		sums[i] = m.sum
		streamed += m.streamed
	}
	return stats, sums, streamed
}

// ckSchedules are the two superstep schedules every checkpoint test
// runs under; the lockstep golden is the oracle for both.
var ckSchedules = []struct {
	name      string
	streaming bool
}{{"lockstep", false}, {"streaming", true}}

// checkStreamed asserts that a streaming arm really streamed and a
// lockstep arm did not.
func checkStreamed(t *testing.T, streaming bool, streamed int) {
	t.Helper()
	if streaming && streamed == 0 {
		t.Error("streaming arm sent no batch through SendBatch")
	}
	if !streaming && streamed != 0 {
		t.Errorf("lockstep arm streamed %d batches", streamed)
	}
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
// the node runtime must not perturb Stats or outputs under either
// schedule, and the store must end the run holding a complete (all k
// parts + coordinator stats) checkpoint of a pre-final superstep.
func TestNodeCheckpointedRunMatchesGolden(t *testing.T) {
	for _, sc := range ckSchedules {
		t.Run(sc.name, func(t *testing.T) { checkCheckpointedRun(t, sc.streaming) })
	}
}

func checkCheckpointedRun(t *testing.T, streaming bool) {
	base := runtime.NumGoroutine()
	const k = 4
	goldenStats, goldenSums := runCkCluster(t, k, CheckpointConfig{})
	store := NewCheckpointStore(k)
	ckStats, ckSums, streamed := runCkClusterSched(t, k, streaming, CheckpointConfig{Every: 2, Store: store})
	checkStreamed(t, streaming, streamed)
	sameCkStats(t, "checkpointed-vs-golden", ckStats, goldenStats)
	for i := range goldenSums {
		if ckSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d with checkpointing, %d without", i, ckSums[i], goldenSums[i])
		}
	}
	latest := store.LatestComplete()
	if latest < 0 {
		t.Fatal("no complete checkpoint in the store after a checkpointed run")
	}
	if latest >= goldenStats.Supersteps-1 {
		t.Errorf("latest complete checkpoint at superstep %d, want a pre-final superstep of a %d-superstep run",
			latest, goldenStats.Supersteps)
	}
	if store.Puts() == 0 || store.Bytes() == 0 {
		t.Errorf("store counters empty: puts=%d bytes=%d", store.Puts(), store.Bytes())
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestNodeResumeFromStoreDeterministic: fresh machines resumed from a
// prior run's store replay only the post-checkpoint tail, and the total
// Stats and final outputs are bit-identical to the golden run — the
// node-runtime half of the scheduler's resume-from-checkpoint protocol.
// Under streaming both the capturing and the resumed run stream.
func TestNodeResumeFromStoreDeterministic(t *testing.T) {
	for _, sc := range ckSchedules {
		t.Run(sc.name, func(t *testing.T) { checkResumeFromStore(t, sc.streaming) })
	}
}

func checkResumeFromStore(t *testing.T, streaming bool) {
	base := runtime.NumGoroutine()
	const k = 4
	goldenStats, goldenSums := runCkCluster(t, k, CheckpointConfig{})
	store := NewCheckpointStore(k)
	_, _, streamed := runCkClusterSched(t, k, streaming, CheckpointConfig{Every: 2, Store: store})
	checkStreamed(t, streaming, streamed)
	if store.LatestComplete() < 0 {
		t.Fatal("no complete checkpoint to resume from")
	}
	resumedStats, resumedSums, streamed := runCkClusterSched(t, k, streaming, CheckpointConfig{Every: 2, Store: store, Resume: true})
	checkStreamed(t, streaming, streamed)
	sameCkStats(t, "resumed-vs-golden", resumedStats, goldenStats)
	for i := range goldenSums {
		if resumedSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d after resume, golden %d", i, resumedSums[i], goldenSums[i])
		}
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestResumeWithEmptyStoreStartsFromZero: Resume against a store with
// no complete checkpoint must degrade to a normal from-zero run — the
// path a job takes when its machine died before the first capture.
func TestResumeWithEmptyStoreStartsFromZero(t *testing.T) {
	const k = 4
	goldenStats, goldenSums := runCkCluster(t, k, CheckpointConfig{})
	store := NewCheckpointStore(k)
	resumedStats, resumedSums := runCkCluster(t, k, CheckpointConfig{Every: 2, Store: store, Resume: true})
	sameCkStats(t, "empty-resume-vs-golden", resumedStats, goldenStats)
	for i := range goldenSums {
		if resumedSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d after empty-store resume, golden %d", i, resumedSums[i], goldenSums[i])
		}
	}
}

// TestPersistedCheckpointSurvivesProcessDeath: with Dir set, complete
// checkpoints land on disk (at most two retained, no torn .tmp left
// behind), and a *fresh* store loaded from the directory — the state a
// restarted process has — resumes to the golden totals.
func TestPersistedCheckpointSurvivesProcessDeath(t *testing.T) {
	const k = 4
	dir := t.TempDir()
	goldenStats, goldenSums := runCkCluster(t, k, CheckpointConfig{})
	if _, _ = runCkCluster(t, k, CheckpointConfig{Every: 2, Dir: dir}); true {
		files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.kmnc"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 || len(files) > 2 {
			t.Fatalf("persisted %d checkpoint files %v, want 1..2", len(files), files)
		}
		if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
			t.Fatalf("torn temp files left behind: %v", tmp)
		}
	}
	fresh := NewCheckpointStore(k)
	step, err := fresh.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if step < 0 || step != fresh.LatestComplete() {
		t.Fatalf("LoadFrom returned step %d, store says %d", step, fresh.LatestComplete())
	}
	resumedStats, resumedSums := runCkCluster(t, k, CheckpointConfig{Every: 2, Store: fresh, Resume: true})
	sameCkStats(t, "disk-resumed-vs-golden", resumedStats, goldenStats)
	for i := range goldenSums {
		if resumedSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d after disk resume, golden %d", i, resumedSums[i], goldenSums[i])
		}
	}
}

// TestLoadFromSkipsCorruptFiles: a truncated newest file must not
// poison recovery — LoadFrom falls back to the next-newest valid one.
func TestLoadFromSkipsCorruptFiles(t *testing.T) {
	const k = 4
	dir := t.TempDir()
	store := NewCheckpointStore(k)
	if err := store.PersistTo(dir); err != nil {
		t.Fatal(err)
	}
	if _, _ = runCkCluster(t, k, CheckpointConfig{Every: 2, Store: store}); store.LatestComplete() < 0 {
		t.Fatal("no complete checkpoint persisted")
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.kmnc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v, %d files", err, len(files))
	}
	sort.Strings(files)
	newest := files[len(files)-1]
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewCheckpointStore(k)
	step, err := fresh.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) >= 2 {
		if step < 0 {
			t.Fatal("LoadFrom found nothing despite an intact older checkpoint")
		}
	} else if step >= 0 {
		t.Fatalf("LoadFrom accepted the truncated file as superstep %d", step)
	}
	wrongK := NewCheckpointStore(k + 1)
	if step, err := wrongK.LoadFrom(dir); err != nil || step >= 0 {
		t.Fatalf("k-mismatched store loaded step %d, err %v; want -1, nil", step, err)
	}
}
