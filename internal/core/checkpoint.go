package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// This file is the checkpoint/recovery subsystem: a run that loses a
// machine finishes anyway, with bit-identical output, on either
// runtime.
//
// The design leans entirely on determinism the repo already guarantees.
// In the k-machine model the configuration at a round boundary is each
// machine's state, its random bits, and the messages it is about to
// read; machine state is a pure function of (seed, inbox history), so
// those three per machine — a Snapshotter blob, the RNG state word,
// and the inbox — plus the Stats so far are a complete, consistent cut
// of the computation. Recovery restores every machine in place from
// the latest cut and re-enters the ordinary superstep loop at the next
// superstep; from there the replay is the original run, bit for bit,
// because every machine draws the same random words and reads the same
// inboxes.
//
// Placement of the cut, the same on both runtimes: after superstep s's
// exchange (Exchange here; on the node runtime, the exchange whose
// reports settle to continue). The Stats then already include s,
// machine state and RNG sit at their post-compute position, and the
// inboxes hold exactly what superstep s+1 reads, so a resumed run
// starts at s+1 with nothing to re-account and nothing in flight. A machine lost before the next cut replays at most Every supersteps.
// Quiescence returns before the exchange, so the final superstep is
// never captured. An additional arm-time image at superstep -1 (fresh
// state, empty inboxes, zero stats) covers failures that land before
// the first periodic capture: restoring it is an exact
// restart-from-zero.
//
// One blob format serves both runtimes (KMCP v2, below). This engine
// encodes it in one piece; on the node runtime each node encodes its
// own section with AppendSection and an in-process assembler joins the
// k sections and node 0's Stats with AssembleCheckpoint. Both
// hand the blob to a CheckpointSink, and both decode it with
// DecodeCheckpoint and RestoreSection.
//
// What is recoverable here: errors that unwrap to
// *transport.MachineError while the run context is still live — the
// attributed peer-loss class chaos injects and real socket failures
// produce. Panics, context cancellation, MaxSupersteps, and validation
// errors stay fail-fast.

// Snapshotter is the per-machine state codec capability. Machines that
// implement it (all five registry algorithms do, in their state.go
// files) can be checkpointed and restored mid-run.
//
// SnapshotState appends the machine's complete dynamic state to dst and
// returns the extended slice; static input (the partition view, graph
// shard, sort keys) is excluded — a restored machine is rebuilt by the
// same factory and already holds it. RestoreState overwrites every
// dynamic field from a blob SnapshotState produced, including clearing
// scratch state, so the machine's subsequent supersteps are
// bit-identical to the snapshotted original's. Implementations reuse
// the algorithm's wire codec types where state is message-shaped.
type Snapshotter interface {
	SnapshotState(dst []byte) ([]byte, error)
	RestoreState(src []byte) error
}

// DefaultMaxRecoveries bounds machine replacements per run when the
// policy doesn't set its own limit.
const DefaultMaxRecoveries = 3

// CheckpointPolicy is Config.Checkpoint: off by default (Every == 0),
// and the superstep loop's checkpoint hook is a single nil check when
// off, preserving the engine's zero-allocation steady state and every
// golden hash.
type CheckpointPolicy struct {
	// Every captures a checkpoint each s supersteps (the cuts after
	// supersteps Every-1, 2*Every-1, ...). 0 disables checkpointing.
	Every int
	// Sink stores the checkpoint blobs; nil means an in-memory ring of
	// the last two checkpoints (NewMemorySink).
	Sink CheckpointSink
	// MaxRecoveries bounds machine replacements per run; 0 means
	// DefaultMaxRecoveries.
	MaxRecoveries int
}

// CheckpointSink is pluggable checkpoint storage. Put stores the blob
// for one superstep (the sink must copy it — the encoder reuses its
// buffer); Latest returns the most recent stored checkpoint, or
// (-1, nil, nil) when the sink holds none.
type CheckpointSink interface {
	Put(superstep int, blob []byte) error
	Latest() (superstep int, blob []byte, err error)
}

// MemorySink is an in-memory checkpoint ring holding the newest retain
// checkpoints. It also counts every Put and its bytes, which is how E25
// reports bytes-per-checkpoint without touching a disk.
type MemorySink struct {
	mu      sync.Mutex
	retain  int
	entries []memCkpt
	puts    int
	bytes   int64
}

type memCkpt struct {
	step int
	blob []byte
}

// NewMemorySink returns a ring keeping the newest retain checkpoints
// (retain <= 0 means 2: the newest plus one fallback).
func NewMemorySink(retain int) *MemorySink {
	if retain <= 0 {
		retain = 2
	}
	return &MemorySink{retain: retain}
}

// Put implements CheckpointSink.
func (s *MemorySink) Put(superstep int, blob []byte) error {
	cp := append([]byte(nil), blob...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, memCkpt{step: superstep, blob: cp})
	if len(s.entries) > s.retain {
		n := copy(s.entries, s.entries[len(s.entries)-s.retain:])
		for i := n; i < len(s.entries); i++ {
			s.entries[i] = memCkpt{}
		}
		s.entries = s.entries[:n]
	}
	s.puts++
	s.bytes += int64(len(blob))
	return nil
}

// Latest implements CheckpointSink.
func (s *MemorySink) Latest() (int, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return -1, nil, nil
	}
	e := s.entries[len(s.entries)-1]
	return e.step, e.blob, nil
}

// Puts returns how many checkpoints have been stored.
func (s *MemorySink) Puts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts
}

// Bytes returns the total bytes across all Put calls (not just the
// retained ring).
func (s *MemorySink) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// FileSink stores checkpoints as files under a run directory, one file
// per checkpoint (ckpt-<superstep>.kmcp), written atomically via a tmp
// file and rename, pruned to the newest two. The directory is created
// on first Put.
type FileSink struct {
	dir    string
	retain int
}

// NewFileSink returns a file-backed sink rooted at dir.
func NewFileSink(dir string) *FileSink {
	return &FileSink{dir: dir, retain: 2}
}

const ckptFilePrefix, ckptFileSuffix = "ckpt-", ".kmcp"

// Put implements CheckpointSink.
func (s *FileSink) Put(superstep int, blob []byte) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	name := fmt.Sprintf("%s%08d%s", ckptFilePrefix, superstep, ckptFileSuffix)
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return err
	}
	steps, err := s.list()
	if err != nil {
		return err
	}
	for len(steps) > s.retain {
		old := fmt.Sprintf("%s%08d%s", ckptFilePrefix, steps[0], ckptFileSuffix)
		if err := os.Remove(filepath.Join(s.dir, old)); err != nil {
			return err
		}
		steps = steps[1:]
	}
	return nil
}

// Latest implements CheckpointSink. Blobs are opaque to the sink with
// one exception: a file that starts like a checkpoint blob but does
// not decode as one (a truncated or corrupted write) is skipped in
// favor of the next-newest, so a damaged newest file falls back to the
// intact one before it.
func (s *FileSink) Latest() (int, []byte, error) {
	steps, err := s.list()
	if err != nil {
		return -1, nil, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		blob, err := os.ReadFile(filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", ckptFilePrefix, steps[i], ckptFileSuffix)))
		if err != nil {
			return -1, nil, err
		}
		if !damagedCheckpoint(blob, steps[i]) {
			return steps[i], blob, nil
		}
	}
	return -1, nil, nil
}

// damagedCheckpoint reports whether blob starts like a checkpoint blob
// ("KMCP", or a prefix of it) yet does not decode as the cut after
// superstep step.
func damagedCheckpoint(blob []byte, step int) bool {
	n := min(len(blob), len(ckptMagic)-1)
	if !bytes.Equal(blob[:n], ckptMagic[:n]) {
		return false
	}
	got, _, _, err := DecodeCheckpoint(blob, -1)
	return err != nil || got != step
}

// list returns the stored superstep numbers in ascending order.
func (s *FileSink) list() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, ckptFilePrefix) || !strings.HasSuffix(name, ckptFileSuffix) {
			continue
		}
		v, err := strconv.Atoi(name[len(ckptFilePrefix) : len(name)-len(ckptFileSuffix)])
		if err != nil {
			continue
		}
		steps = append(steps, v)
	}
	sort.Ints(steps)
	return steps, nil
}

// Checkpoint blob format, "KMCP" version 2 — the one cut format of
// both runtimes (decode rejects any other version):
//
//	'K','M','C','P', 2
//	uvarint superstep+1          (+1 encodes the arm-time -1)
//	uvarint k
//	Stats record                 (AppendStats)
//	k × (uvarint len ++ machine section, in machine order)
//
// A machine section is what that machine needs to resume:
//
//	uvarint RNG stream state
//	uvarint len(state) ++ Snapshotter blob
//	uvarint len(inbox), each: uvarint From, uvarint Words, codec payload
//	                          (To is the section's machine)
//
// Every count is checked against the bytes still unread before a loop
// or allocation uses it, so a truncated or hostile blob is rejected
// without running away.
var ckptMagic = []byte{'K', 'M', 'C', 'P', 2}

// AppendStats appends the varint Stats record: uvarint Rounds,
// Supersteps, Messages, Words, MaxRecvWords; uvarint k, then k
// RecvWords and k SentWords; uvarint len(PerSuperstep), then six
// uvarints per entry (Rounds, Messages, Words, MaxLinkWords,
// MaxRecvWords, MaxSentWords). It is the Stats of a checkpoint.
// Recoveries is left out:
// it is a property of one execution, not of the computation.
func AppendStats(dst []byte, s *Stats) []byte {
	for _, v := range []int64{s.Rounds, int64(s.Supersteps), s.Messages, s.Words, s.MaxRecvWords} {
		dst = wire.AppendUvarint(dst, uint64(v))
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.RecvWords)))
	for _, w := range s.RecvWords {
		dst = wire.AppendUvarint(dst, uint64(w))
	}
	for _, w := range s.SentWords {
		dst = wire.AppendUvarint(dst, uint64(w))
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.PerSuperstep)))
	for i := range s.PerSuperstep {
		ss := &s.PerSuperstep[i]
		for _, v := range []int64{ss.Rounds, ss.Messages, ss.Words, ss.MaxLinkWords, ss.MaxRecvWords, ss.MaxSentWords} {
			dst = wire.AppendUvarint(dst, uint64(v))
		}
	}
	return dst
}

// DecodeStats reads a Stats record written by AppendStats; errors latch
// in c. An empty PerSuperstep decodes as nil, like a run that never
// charged a superstep (or dropped the breakdown).
func DecodeStats(c *wire.Cursor) *Stats {
	s := &Stats{
		Rounds:       int64(c.Uvarint()),
		Supersteps:   int(c.Uvarint()),
		Messages:     int64(c.Uvarint()),
		Words:        int64(c.Uvarint()),
		MaxRecvWords: int64(c.Uvarint()),
	}
	k := c.Count(2)
	s.RecvWords, s.SentWords = make([]int64, k), make([]int64, k)
	for i := range s.RecvWords {
		s.RecvWords[i] = int64(c.Uvarint())
	}
	for i := range s.SentWords {
		s.SentWords[i] = int64(c.Uvarint())
	}
	if n := c.Count(6); n > 0 {
		s.PerSuperstep = make([]SuperstepStat, n)
		for i := range s.PerSuperstep {
			s.PerSuperstep[i] = SuperstepStat{
				Rounds:       int64(c.Uvarint()),
				Messages:     int64(c.Uvarint()),
				Words:        int64(c.Uvarint()),
				MaxLinkWords: int64(c.Uvarint()),
				MaxRecvWords: int64(c.Uvarint()),
				MaxSentWords: int64(c.Uvarint()),
			}
		}
	}
	return s
}

// AppendSection appends machine ctx.Self's length-prefixed checkpoint
// section: its RNG state, its Snapshotter blob, and inbox — the
// envelopes it reads next superstep.
func AppendSection[M any](dst []byte, ctx *StepContext, snap Snapshotter, inbox []Envelope[M], codec wire.Codec[M]) ([]byte, error) {
	lenAt := len(dst)
	b := append(dst, 0) // section length placeholder
	secAt := len(b)
	b = wire.AppendUvarint(b, ctx.RNG.State())
	stateLenAt := len(b)
	b = append(b, 0) // state length placeholder
	stateAt := len(b)
	b, err := snap.SnapshotState(b)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot machine %d: %w", ctx.Self, err)
	}
	b = spliceLen(b, stateLenAt, stateAt)
	b = wire.AppendUvarint(b, uint64(len(inbox)))
	for i := range inbox {
		env := &inbox[i]
		b = wire.AppendUvarint(b, uint64(env.From))
		b = wire.AppendUvarint(b, uint64(env.Words))
		if b, err = codec.Append(b, env.Msg); err != nil {
			return nil, fmt.Errorf("core: snapshot machine %d envelope from %d: %w", ctx.Self, env.From, err)
		}
	}
	return spliceLen(b, lenAt, secAt), nil
}

// spliceLen rewrites the uvarint length placeholder at lenAt (encoded
// as a single zero byte) to the actual length of b[at:], shifting the
// tail when the real uvarint needs more than one byte.
func spliceLen(b []byte, lenAt, at int) []byte {
	n := len(b) - at
	var enc [10]byte
	encLen := len(wire.AppendUvarint(enc[:0], uint64(n)))
	if encLen == 1 {
		b[lenAt] = byte(n)
		return b
	}
	b = append(b, make([]byte, encLen-1)...)
	copy(b[at+encLen-1:], b[at:len(b)-(encLen-1)])
	wire.AppendUvarint(b[lenAt:lenAt], uint64(n))
	return b
}

// AssembleCheckpoint appends the blob of the cut after superstep step
// from its parts: stats is a Stats record (AppendStats) and sections
// holds the k length-prefixed machine sections (AppendSection) in
// machine order.
func AssembleCheckpoint(dst []byte, step int, stats []byte, sections [][]byte) []byte {
	dst = appendHeader(dst, step, len(sections))
	dst = append(dst, stats...)
	for _, sec := range sections {
		dst = append(dst, sec...)
	}
	return dst
}

func appendHeader(dst []byte, step, k int) []byte {
	dst = append(dst, ckptMagic...)
	dst = wire.AppendUvarint(dst, uint64(step+1))
	return wire.AppendUvarint(dst, uint64(k))
}

// DecodeCheckpoint parses a blob for a k-machine cluster (k < 0
// accepts any k) into the superstep it was cut after, its Stats, and
// the k machine sections, each to be installed with RestoreSection.
// The sections alias blob.
func DecodeCheckpoint(blob []byte, k int) (step int, stats *Stats, sections [][]byte, err error) {
	if !bytes.HasPrefix(blob, ckptMagic) {
		return 0, nil, nil, fmt.Errorf("core: not a KMCP v%d checkpoint blob", ckptMagic[len(ckptMagic)-1])
	}
	c := wire.Cursor{Src: blob, Off: len(ckptMagic)}
	s := c.Uvarint()
	n := c.Count(1) // every section costs at least its length byte
	if c.Err == nil && s > math.MaxInt32 {
		c.Err = fmt.Errorf("superstep %d out of range", s)
	}
	if c.Err == nil && k >= 0 && n != k {
		return 0, nil, nil, fmt.Errorf("core: checkpoint for k=%d cluster, running k=%d", n, k)
	}
	stats = DecodeStats(&c)
	if c.Err == nil && len(stats.RecvWords) != n {
		c.Err = fmt.Errorf("stats for k=%d in a k=%d checkpoint", len(stats.RecvWords), n)
	}
	sections = make([][]byte, n)
	for i := range sections {
		sections[i] = c.Bytes(c.Count(1))
	}
	if err := c.Finish(); err != nil {
		return 0, nil, nil, fmt.Errorf("core: corrupt checkpoint: %w", err)
	}
	return int(s) - 1, stats, sections, nil
}

// RestoreSection installs one machine's section (from DecodeCheckpoint)
// into the machine behind snap and its RNG stream ctx.RNG, and returns
// the inbox its next superstep reads.
func RestoreSection[M any](sec []byte, ctx *StepContext, snap Snapshotter, codec wire.Codec[M]) ([]Envelope[M], error) {
	c := wire.Cursor{Src: sec}
	rngState := c.Uvarint()
	state := c.Bytes(c.Count(1))
	n := c.Count(2) // From and Words take a byte each
	var inbox []Envelope[M]
	if n > 0 {
		inbox = make([]Envelope[M], 0, n)
	}
	for i := 0; i < n && c.Err == nil; i++ {
		from, words := c.Uvarint(), c.Uvarint()
		if c.Err == nil && (from >= uint64(ctx.K) || words > math.MaxInt32) {
			c.Err = fmt.Errorf("envelope from machine %d with %d words", from, words)
		}
		if c.Err != nil {
			break
		}
		msg, used, err := codec.Decode(sec[c.Off:])
		if err != nil {
			return nil, fmt.Errorf("core: decode checkpoint envelope (machine %d): %w", ctx.Self, err)
		}
		c.Off += used
		inbox = append(inbox, Envelope[M]{From: MachineID(from), To: ctx.Self, Words: int32(words), Msg: msg})
	}
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint section (machine %d): %w", ctx.Self, err)
	}
	if err := snap.RestoreState(state); err != nil {
		return nil, fmt.Errorf("core: restore machine %d: %w", ctx.Self, err)
	}
	ctx.RNG.SetState(rngState)
	return inbox, nil
}

// ckRun is the per-run checkpoint state threaded through the superstep
// loop when checkpointing is armed; nil keeps the loop on its fenced
// zero-allocation path.
type ckRun[M any] struct {
	every int
	sink  CheckpointSink
	codec wire.Codec[M]
	snaps []Snapshotter

	buf      []byte // encode scratch, reused across captures
	initBlob []byte // arm-time superstep -1 image (restart-from-zero)
}

// arm validates that every machine is checkpointable and captures the
// superstep -1 image.
func (ck *ckRun[M]) arm(c *Cluster[M], e *engine[M], stats *Stats) error {
	ck.snaps = make([]Snapshotter, c.cfg.K)
	for i, m := range c.machines {
		s, ok := m.(Snapshotter)
		if !ok {
			return fmt.Errorf("core: machine %d (%T) does not implement core.Snapshotter; checkpointing needs a per-machine state codec", i, m)
		}
		ck.snaps[i] = s
	}
	blob, err := ck.encode(-1, e, stats)
	if err != nil {
		return err
	}
	ck.initBlob = append([]byte(nil), blob...)
	return nil
}

// capture encodes the cut after superstep step and stores it in the
// sink.
func (ck *ckRun[M]) capture(step int, e *engine[M], stats *Stats) error {
	blob, err := ck.encode(step, e, stats)
	if err != nil {
		return err
	}
	return ck.sink.Put(step, blob)
}

func (ck *ckRun[M]) encode(step int, e *engine[M], stats *Stats) ([]byte, error) {
	b := appendHeader(ck.buf[:0], step, len(ck.snaps))
	b = AppendStats(b, stats)
	var err error
	for i, snap := range ck.snaps {
		if b, err = AppendSection(b, &e.ctxs[i], snap, e.inboxes[i], ck.codec); err != nil {
			return nil, err
		}
	}
	ck.buf = b
	return b, nil
}

// restore installs the latest stored checkpoint (or the arm-time image
// when the sink is empty) into the machines, RNG streams, engine
// inboxes, and stats, and returns the superstep it was cut after (-1
// for a restart-from-zero); the run resumes at the one after it.
func (ck *ckRun[M]) restore(e *engine[M], stats *Stats) (int, error) {
	step, blob, err := ck.sink.Latest()
	if err != nil {
		return -1, fmt.Errorf("core: read latest checkpoint: %w", err)
	}
	if blob == nil {
		step, blob = -1, ck.initBlob
	}
	got, cut, sections, err := DecodeCheckpoint(blob, len(ck.snaps))
	if err != nil {
		return -1, err
	}
	if got != step {
		return -1, fmt.Errorf("core: checkpoint blob names superstep %d, sink says %d", got, step)
	}
	for i, sec := range sections {
		if e.inboxes[i], err = RestoreSection(sec, &e.ctxs[i], ck.snaps[i], ck.codec); err != nil {
			return -1, err
		}
		e.panics[i] = nil
	}
	cut.Recoveries = stats.Recoveries
	*stats = *cut
	return step, nil
}

// RunCheckpointed executes the cluster over t with the configured
// checkpoint policy and in-run recovery: when the run fails with an
// attributed *transport.MachineError and the context is still live, the
// dead transport is replaced by one from reopen, every machine is
// restored in place from the latest checkpoint, and the run resumes at
// the superstep after the checkpointed one — a deterministic replay
// whose output is bit-identical to an unkilled run. Recovery is
// attempted up to the policy's MaxRecoveries; Stats.Recoveries counts
// the replacements performed.
//
// The caller owns t (and must Close it, as with RunOn); replacement
// transports created from reopen are owned and closed here. With
// Checkpoint.Every == 0 this is exactly RunOn.
func (c *Cluster[M]) RunCheckpointed(t Transport[M], codec wire.Codec[M], reopen func() (Transport[M], error)) (*Stats, error) {
	pol := c.cfg.Checkpoint
	if pol.Every <= 0 {
		return c.RunOn(t)
	}
	if codec == nil {
		return nil, fmt.Errorf("core: checkpointing needs a message codec for state and envelope serialization")
	}
	runCtx := c.runContext()
	maxRec := pol.MaxRecoveries
	if maxRec <= 0 {
		maxRec = DefaultMaxRecoveries
	}
	sink := pol.Sink
	if sink == nil {
		sink = NewMemorySink(0)
	}

	stats := newStats(c.cfg.K)
	defer stats.Finalize()
	e := c.newEngine()
	defer e.shutdown()

	ck := &ckRun[M]{every: pol.Every, sink: sink, codec: codec}
	if err := ck.arm(c, e, stats); err != nil {
		return stats, err
	}

	cur := t
	defer func() {
		if cur != t {
			cur.Close()
		}
	}()
	for start := 0; ; {
		err := c.run(e, cur, runCtx, stats, ck, start)
		if err == nil {
			return stats, nil
		}
		var me *transport.MachineError
		if !errors.As(err, &me) || runCtx.Err() != nil || reopen == nil || stats.Recoveries >= maxRec {
			return stats, err
		}
		step, rerr := ck.restore(e, stats)
		if rerr != nil {
			return stats, fmt.Errorf("core: recovery after %v: %w", err, rerr)
		}
		nt, oerr := reopen()
		if oerr != nil {
			return stats, fmt.Errorf("core: recovery reopen after %v: %w", err, oerr)
		}
		if cur != t {
			cur.Close()
		}
		cur = nt
		stats.Recoveries++
		start = step + 1
	}
}
