package core

// Hostile-input tests for the one checkpoint decoder: DecodeCheckpoint
// and RestoreSection read bytes from a sink — a file on disk, for the
// FileSink. None may panic, hang, or
// size an allocation by an unchecked count, and whatever they accept
// must survive a trip through the encoders unchanged.
//
// Longer local runs: go test -fuzz FuzzCheckpointDecode ./internal/core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"kmachine/internal/rng"
	"kmachine/internal/transport/wire"
)

// ckRing is a Snapshotter ring machine: every superstep it sends a
// fresh random draw to its successor and accumulates what it receives,
// so a checkpoint of it carries a state blob, a moved RNG and a
// non-empty inbox.
type ckRing struct{ sum int64 }

func (m *ckRing) Step(ctx *StepContext, inbox []Envelope[int64]) ([]Envelope[int64], bool) {
	for _, e := range inbox {
		m.sum += e.Msg
	}
	if ctx.Superstep >= 5 {
		return nil, true
	}
	to := MachineID((int(ctx.Self) + 1) % ctx.K)
	return []Envelope[int64]{{To: to, Words: 2, Msg: int64(ctx.RNG.Uint64() % 1000)}}, false
}

func (m *ckRing) SnapshotState(dst []byte) ([]byte, error) { return wire.AppendVarint(dst, m.sum), nil }

func (m *ckRing) RestoreState(src []byte) error {
	c := wire.Cursor{Src: src}
	m.sum = c.Varint()
	return c.Finish()
}

type varintCodec struct{}

func (varintCodec) Append(dst []byte, m int64) ([]byte, error) { return wire.AppendVarint(dst, m), nil }

func (varintCodec) Decode(src []byte) (int64, int, error) { return wire.Varint(src) }

// realCheckpoint runs a k=3 ring with a checkpoint after every
// superstep and returns the latest blob the sink holds.
func realCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	sink := NewMemorySink(0)
	c := NewCluster(Config{K: 3, Bandwidth: 1, Seed: 5, Checkpoint: CheckpointPolicy{Every: 1, Sink: sink}},
		func(MachineID) Machine[int64] { return &ckRing{} })
	tr, err := OpenTransport[int64]("", 3, varintCodec{})
	if err != nil {
		tb.Fatal(err)
	}
	defer tr.Close()
	if _, err := c.RunCheckpointed(tr, varintCodec{}, nil); err != nil {
		tb.Fatal(err)
	}
	_, blob, _ := sink.Latest()
	if blob == nil {
		tb.Fatal("run stored no checkpoint")
	}
	return append([]byte(nil), blob...)
}

func FuzzCheckpointDecode(f *testing.F) {
	blob := realCheckpoint(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(AppendStats(nil, &Stats{Rounds: 3, Supersteps: 2, RecvWords: []int64{1, 2}, SentWords: []int64{2, 1},
		PerSuperstep: []SuperstepStat{{Rounds: 1, Words: 3}, {Rounds: 2, MaxLinkWords: 2}}}))

	f.Fuzz(func(t *testing.T, b []byte) {
		if step, stats, sections, err := DecodeCheckpoint(b, -1); err == nil {
			k := len(sections)
			for i, sec := range sections {
				ctx := &StepContext{Self: MachineID(i), K: k, RNG: rng.NewStream(0, uint64(i))}
				m := &ckRing{}
				inbox, err := RestoreSection(sec, ctx, m, varintCodec{})
				if err != nil {
					continue
				}
				again, err := AppendSection(nil, ctx, m, inbox, varintCodec{})
				if err != nil {
					t.Fatalf("restored section %d does not re-encode: %v", i, err)
				}
				ctx2 := &StepContext{Self: MachineID(i), K: k, RNG: rng.NewStream(1, 1)}
				m2 := &ckRing{}
				c := wire.Cursor{Src: again}
				inbox2, err := RestoreSection(c.Bytes(c.Count(1)), ctx2, m2, varintCodec{})
				if err != nil || c.Finish() != nil || m2.sum != m.sum || ctx2.RNG.State() != ctx.RNG.State() ||
					!reflect.DeepEqual(inbox2, inbox) {
					t.Fatalf("section %d round trip diverged (%v)", i, err)
				}
			}
			secs := make([][]byte, k)
			for i, sec := range sections {
				secs[i] = wire.AppendUvarint(nil, uint64(len(sec)))
				secs[i] = append(secs[i], sec...)
			}
			enc := AssembleCheckpoint(nil, step, AppendStats(nil, stats), secs)
			step2, stats2, sections2, err := DecodeCheckpoint(enc, k)
			if err != nil || step2 != step || !reflect.DeepEqual(stats2, stats) || !reflect.DeepEqual(sections2, sections) {
				t.Fatalf("checkpoint round trip diverged: step %d→%d, err %v", step, step2, err)
			}
		}

		c := wire.Cursor{Src: b}
		if s := DecodeStats(&c); c.Finish() == nil {
			enc := AppendStats(nil, s)
			c2 := wire.Cursor{Src: enc}
			if s2 := DecodeStats(&c2); c2.Finish() != nil || !reflect.DeepEqual(s2, s) || !bytes.Equal(AppendStats(nil, s2), enc) {
				t.Fatalf("stats round trip diverged: %+v", s)
			}
		}
	})
}

// decodeQuickly fails the test if decode does not return within a
// second — the shape a runaway count loop takes.
func decodeQuickly(t *testing.T, decode func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- decode() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("decode still running after 1s")
		return nil
	}
}

// TestCheckpointDecodeRejectsOversizedPerSuperstepCount: a truncated
// 30-byte blob claiming 2^34 PerSuperstep entries must be rejected at
// the count, not looped over appending zeroed entries.
func TestCheckpointDecodeRejectsOversizedPerSuperstepCount(t *testing.T) {
	b := appendHeader(nil, 1, 2)
	for _, v := range []uint64{3, 2, 4, 8, 0, 2, 4, 4, 4, 4, 1 << 34} {
		b = wire.AppendUvarint(b, v)
	}
	for len(b) < 30 {
		b = append(b, 1)
	}
	err := decodeQuickly(t, func() error { _, _, _, err := DecodeCheckpoint(b, 2); return err })
	if err == nil {
		t.Fatal("blob with a 2^34 PerSuperstep count accepted")
	}
}

// TestCheckpointSectionRejectsOversizedInboxCount: an 11-byte section
// claiming 2^40 inbox envelopes must be rejected before any allocation
// is sized by the count.
func TestCheckpointSectionRejectsOversizedInboxCount(t *testing.T) {
	sec := wire.AppendUvarint(nil, 12345) // RNG state
	sec = append(sec, 1, 0)               // state: one byte
	sec = wire.AppendUvarint(sec, 1<<40)  // inbox count
	sec = append(sec, 0)
	if len(sec) != 11 {
		t.Fatalf("section is %d bytes, want 11", len(sec))
	}
	ctx := &StepContext{Self: 1, K: 2, RNG: rng.NewStream(0, 1)}
	err := decodeQuickly(t, func() error {
		_, err := RestoreSection(sec, ctx, &ckRing{}, varintCodec{})
		return err
	})
	if err == nil {
		t.Fatal("section with a 2^40 inbox count accepted")
	}
}
