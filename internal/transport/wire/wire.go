package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"kmachine/internal/transport"
)

// Codec serialises one algorithm's message type M. Append writes m to
// dst and returns the extended slice; Decode reads one message from the
// front of src and returns it with the number of bytes consumed.
//
// A Codec must round-trip exactly: Decode(Append(nil, m)) == (m,
// len(Append(nil, m)), nil) for every message the algorithm can emit.
// Decode must return a self-contained value that does not alias src —
// transports recycle their frame buffers across supersteps (see
// ReadFrameInto), so a message holding a sub-slice of src would be
// corrupted one superstep later.
// The per-algorithm implementations live next to their message types
// (pagerank.WireCodec, dsort.WireCodec, conncomp.WireCodec,
// triangle.WireCodec) so unexported message structs stay unexported.
type Codec[M any] interface {
	Append(dst []byte, m M) ([]byte, error)
	Decode(src []byte) (M, int, error)
}

// MaxFrame is the largest frame Read/WriteFrame accept: 1 GiB, far
// above any single superstep batch yet small enough to reject a
// corrupted length prefix before allocating.
const MaxFrame = 1 << 30

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = fmt.Errorf("wire: frame exceeds %d bytes", MaxFrame)

// AppendUvarint appends x in unsigned LEB128.
func AppendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// Uvarint decodes an unsigned LEB128 value from the front of src.
func Uvarint(src []byte) (uint64, int, error) {
	x, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("wire: truncated or overlong uvarint")
	}
	return x, n, nil
}

// Cursor is a latching decode cursor over a byte slice: each read
// advances Off, the first failure sticks in Err and turns every later
// read into a zero-value no-op, so a decode body reads linearly and
// checks Err once at the end. Used by the per-algorithm checkpoint
// state codecs (state.go files), which share this package's varint
// primitives with the batch format.
type Cursor struct {
	Src []byte
	Off int
	Err error
}

// Uvarint reads one unsigned LEB128 value.
func (c *Cursor) Uvarint() uint64 {
	if c.Err != nil {
		return 0
	}
	v, n, err := Uvarint(c.Src[c.Off:])
	if err != nil {
		c.Err = err
		return 0
	}
	c.Off += n
	return v
}

// Varint reads one zigzag LEB128 value.
func (c *Cursor) Varint() int64 {
	if c.Err != nil {
		return 0
	}
	v, n, err := Varint(c.Src[c.Off:])
	if err != nil {
		c.Err = err
		return 0
	}
	c.Off += n
	return v
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if c.Err == nil && c.Off >= len(c.Src) {
		c.Err = fmt.Errorf("wire: truncated cursor read")
	}
	if c.Err != nil {
		return 0
	}
	b := c.Src[c.Off]
	c.Off++
	return b
}

// Uint64 reads 8 raw little-endian bytes (for payloads where varint
// compression would lose bit-exactness guarantees, e.g. float bits).
func (c *Cursor) Uint64() uint64 {
	if c.Err == nil && c.Off+8 > len(c.Src) {
		c.Err = fmt.Errorf("wire: truncated cursor read")
	}
	if c.Err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.Src[c.Off:])
	c.Off += 8
	return v
}

// Bytes reads n raw bytes, returned as a sub-slice of Src (not a copy).
func (c *Cursor) Bytes(n int) []byte {
	if c.Err == nil && (n < 0 || n > len(c.Src)-c.Off) {
		c.Err = fmt.Errorf("wire: %d-byte read overruns %d remaining bytes", n, len(c.Src)-c.Off)
	}
	if c.Err != nil {
		return nil
	}
	b := c.Src[c.Off : c.Off+n]
	c.Off += n
	return b
}

// Count reads a uvarint element count whose elements each take at
// least min >= 1 bytes of what follows, and rejects a count the unread
// bytes cannot hold — so a corrupt or hostile count fails here, before
// any loop or allocation sized by it runs.
func (c *Cursor) Count(min int) int {
	v := c.Uvarint()
	if c.Err == nil && v > uint64((len(c.Src)-c.Off)/min) {
		c.Err = fmt.Errorf("wire: count %d of %d-byte elements overruns %d remaining bytes", v, min, len(c.Src)-c.Off)
	}
	if c.Err != nil {
		return 0
	}
	return int(v)
}

// Finish returns the latched error, or an error if trailing bytes
// remain unconsumed — a decode that must account for the whole blob
// (checkpoint restore) calls it last.
func (c *Cursor) Finish() error {
	if c.Err != nil {
		return c.Err
	}
	if c.Off != len(c.Src) {
		return fmt.Errorf("wire: %d trailing bytes after decode", len(c.Src)-c.Off)
	}
	return nil
}

// AppendVarint appends x in zigzag LEB128 (negative-friendly).
func AppendVarint(dst []byte, x int64) []byte {
	return binary.AppendVarint(dst, x)
}

// Varint decodes a zigzag LEB128 value from the front of src.
func Varint(src []byte) (int64, int, error) {
	x, n := binary.Varint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("wire: truncated or overlong varint")
	}
	return x, n, nil
}

// AppendEnvelope appends one envelope: uvarint From, To, Words headers
// followed by the codec-encoded payload.
func AppendEnvelope[M any](dst []byte, e transport.Envelope[M], c Codec[M]) ([]byte, error) {
	if e.From < 0 || e.To < 0 || e.Words < 0 {
		return dst, fmt.Errorf("wire: envelope with negative header field: from=%d to=%d words=%d", e.From, e.To, e.Words)
	}
	dst = AppendUvarint(dst, uint64(e.From))
	dst = AppendUvarint(dst, uint64(e.To))
	dst = AppendUvarint(dst, uint64(e.Words))
	return c.Append(dst, e.Msg)
}

// DecodeEnvelope decodes one envelope from the front of src, returning
// the bytes consumed. Header values above int32 range are corruption
// (AppendEnvelope rejects negatives, so a valid header always fits):
// rejecting them here keeps silently-truncated Words out of core's
// accounting.
func DecodeEnvelope[M any](src []byte, c Codec[M]) (transport.Envelope[M], int, error) {
	var e transport.Envelope[M]
	pos := 0
	for _, f := range []*transport.MachineID{&e.From, &e.To} {
		v, n, err := Uvarint(src[pos:])
		if err != nil {
			return e, 0, err
		}
		if v > math.MaxInt32 {
			return e, 0, fmt.Errorf("wire: machine ID %d out of range", v)
		}
		*f = transport.MachineID(v)
		pos += n
	}
	w, n, err := Uvarint(src[pos:])
	if err != nil {
		return e, 0, err
	}
	if w > math.MaxInt32 {
		return e, 0, fmt.Errorf("wire: envelope words %d out of range", w)
	}
	e.Words = int32(w)
	pos += n
	msg, n, err := c.Decode(src[pos:])
	if err != nil {
		return e, 0, err
	}
	e.Msg = msg
	return e, pos + n, nil
}

// AppendBatch appends one superstep batch: uvarint superstep, uvarint
// sender, uvarint count, then count envelopes. The batch is the unit
// the TCP transport frames per (sender, receiver, superstep) — empty
// batches are legal and mark "nothing for you this superstep".
func AppendBatch[M any](dst []byte, step int, from transport.MachineID, envs []transport.Envelope[M], c Codec[M]) ([]byte, error) {
	dst = AppendUvarint(dst, uint64(step))
	dst = AppendUvarint(dst, uint64(from))
	dst = AppendUvarint(dst, uint64(len(envs)))
	var err error
	for _, e := range envs {
		if dst, err = AppendEnvelope(dst, e, c); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// DecodeBatch decodes a batch produced by AppendBatch.
func DecodeBatch[M any](src []byte, c Codec[M]) (step int, from transport.MachineID, envs []transport.Envelope[M], err error) {
	return DecodeBatchInto(src, c, nil)
}

// DecodeBatchInto is DecodeBatch appending into dst[:0], so a transport
// decoding one batch per peer per superstep can recycle its envelope
// scratch instead of allocating a fresh slice every frame. Decoded
// envelopes are self-contained values (a Codec must not alias src), so
// the caller may reuse the frame buffer once DecodeBatchInto returns.
func DecodeBatchInto[M any](src []byte, c Codec[M], dst []transport.Envelope[M]) (step int, from transport.MachineID, envs []transport.Envelope[M], err error) {
	pos := 0
	var hdr [3]uint64
	for i := range hdr {
		v, n, err := Uvarint(src[pos:])
		if err != nil {
			return 0, 0, nil, err
		}
		hdr[i] = v
		pos += n
	}
	step, from = int(hdr[0]), transport.MachineID(hdr[1])
	count := hdr[2]
	if count > uint64(len(src)-pos) {
		// Each envelope needs >= 1 byte; a count beyond the remaining
		// bytes is corruption, not a big batch.
		return 0, 0, nil, fmt.Errorf("wire: batch claims %d envelopes in %d bytes", count, len(src)-pos)
	}
	envs = dst[:0]
	if free := uint64(cap(envs)); free < count {
		envs = make([]transport.Envelope[M], 0, count)
	}
	for i := uint64(0); i < count; i++ {
		e, n, err := DecodeEnvelope(src[pos:], c)
		if err != nil {
			return 0, 0, nil, err
		}
		envs = append(envs, e)
		pos += n
	}
	if pos != len(src) {
		return 0, 0, nil, fmt.Errorf("wire: %d trailing bytes after batch", len(src)-pos)
	}
	return step, from, envs, nil
}

// Batch format versions. A versioned batch begins with one of these
// bytes; the legacy (PR-1) batch format has no version byte and is only
// handled by DecodeBatch/DecodeBatchInto.
const (
	// BatchV1 frames the legacy per-envelope format (from/to/words per
	// envelope) behind a version byte so it can coexist with v2 on the
	// same connection.
	BatchV1 = byte(0x01)
	// BatchV2 is the compact per-destination format: the per-envelope To
	// is elided (implied by the frame's destination), From is run-length
	// delta-encoded, and the payload section is length-prefixed.
	BatchV2 = byte(0x02)
)

// AppendBatchV1 appends a version-framed v1 batch: the BatchV1 byte
// followed by the exact AppendBatch body. It exists for cross-version
// interop (and its tests): a v2-speaking decoder must still accept a
// peer that ships the legacy layout.
func AppendBatchV1[M any](dst []byte, step int, from transport.MachineID, envs []transport.Envelope[M], c Codec[M]) ([]byte, error) {
	return AppendBatch(append(dst, BatchV1), step, from, envs, c)
}

// AppendBatchV2 appends one superstep batch in the v2 layout:
//
//	batchV2 := version superstep count [run* words* payloadLen payload]
//
// Two envelope header fields of v1 are elided outright, because a TCP
// batch frame is already a per-(sender, receiver, superstep) unit: the
// per-envelope To is implied by the frame's destination, and the frame
// sender is implied by the connection the frame arrives on — both are
// supplied to the decoder as arguments and reconstructed. From values
// are encoded as (delta, runLength) runs — zigzag delta against the
// previous run's From, seeded with `from` — so the common transport
// batch (every envelope From the frame's sender) costs two bytes of
// From encoding total instead of one byte per envelope. The payload
// section is length-prefixed so a decoder can validate and pre-size
// before touching codec bytes. An empty batch (the "nothing for you
// this superstep" marker, which dominates frame counts for sparse
// traffic) ends right after count and costs no more than its v1
// equivalent.
func AppendBatchV2[M any](dst []byte, step int, from, to transport.MachineID, envs []transport.Envelope[M], c Codec[M]) ([]byte, error) {
	dst = append(dst, BatchV2)
	dst = AppendUvarint(dst, uint64(step))
	dst = AppendUvarint(dst, uint64(len(envs)))
	if len(envs) == 0 {
		return dst, nil
	}

	// From runs: (delta, length) pairs over maximal runs of equal From.
	// Envelopes inside a run share the head's From, so checking heads
	// covers every From in the batch.
	prev := from
	for i := 0; i < len(envs); {
		e := &envs[i]
		if e.From < 0 {
			return dst, fmt.Errorf("wire: envelope with negative From %d", e.From)
		}
		run := 1
		for i+run < len(envs) && envs[i+run].From == e.From {
			run++
		}
		dst = AppendVarint(dst, int64(e.From)-int64(prev))
		dst = AppendUvarint(dst, uint64(run))
		prev = e.From
		i += run
	}

	// Words, one per envelope; To and Words are validated here, where
	// every envelope is visited.
	for i := range envs {
		e := &envs[i]
		if e.To != to {
			return dst, fmt.Errorf("wire: v2 batch for machine %d holds envelope addressed to %d", to, e.To)
		}
		if e.Words < 0 {
			return dst, fmt.Errorf("wire: envelope with negative Words %d", e.Words)
		}
		dst = AppendUvarint(dst, uint64(e.Words))
	}

	// Payload section, length-prefixed. Encode into the tail of dst,
	// then insert the length prefix in front — a second small copy of
	// just the payload bytes, which keeps the format streaming-friendly
	// without a separate scratch buffer.
	mark := len(dst)
	var err error
	for i := range envs {
		if dst, err = c.Append(dst, envs[i].Msg); err != nil {
			return dst, err
		}
	}
	payload := len(dst) - mark
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(payload))
	dst = append(dst, hdr[:n]...)              // grow by prefix size
	copy(dst[mark+n:], dst[mark:mark+payload]) // shift payload right
	copy(dst[mark:], hdr[:n])                  // install the prefix
	return dst, nil
}

// DecodeBatchAny decodes a version-framed batch (BatchV1 or BatchV2)
// produced by AppendBatchV1/AppendBatchV2. `from` and `to` identify the
// connection the frame arrived on — the machine at the far end and this
// machine — and reconstruct the fields the v2 layout elides; v1 bodies
// carry both explicitly and ignore the arguments (the returned sender
// is the embedded one, which transports verify against the connection).
func DecodeBatchAny[M any](src []byte, c Codec[M], from, to transport.MachineID) (step int, gotFrom transport.MachineID, envs []transport.Envelope[M], err error) {
	return DecodeBatchAnyInto(src, c, from, to, nil)
}

// DecodeBatchAnyInto is DecodeBatchAny appending into dst[:0], the
// recycled-scratch form transports use (see DecodeBatchInto).
func DecodeBatchAnyInto[M any](src []byte, c Codec[M], from, to transport.MachineID, dst []transport.Envelope[M]) (step int, gotFrom transport.MachineID, envs []transport.Envelope[M], err error) {
	if len(src) == 0 {
		return 0, 0, nil, fmt.Errorf("wire: empty batch frame")
	}
	switch src[0] {
	case BatchV1:
		return DecodeBatchInto(src[1:], c, dst)
	case BatchV2:
		return decodeBatchV2Into(src[1:], c, from, to, dst)
	default:
		return 0, 0, nil, fmt.Errorf("wire: unknown batch version 0x%02x", src[0])
	}
}

func decodeBatchV2Into[M any](src []byte, c Codec[M], from, to transport.MachineID, dst []transport.Envelope[M]) (step int, gotFrom transport.MachineID, envs []transport.Envelope[M], err error) {
	pos := 0
	var hdr [2]uint64
	for i := range hdr {
		v, n, err := Uvarint(src[pos:])
		if err != nil {
			return 0, 0, nil, err
		}
		hdr[i] = v
		pos += n
	}
	step = int(hdr[0])
	count := hdr[1]
	if count == 0 {
		if pos != len(src) {
			return 0, 0, nil, fmt.Errorf("wire: %d trailing bytes after empty v2 batch", len(src)-pos)
		}
		return step, from, dst[:0], nil
	}
	if count > uint64(len(src)-pos) {
		// Each envelope contributes at least one Words byte; a count
		// beyond the remaining bytes is corruption, not a big batch.
		return 0, 0, nil, fmt.Errorf("wire: v2 batch claims %d envelopes in %d bytes", count, len(src)-pos)
	}
	envs = dst[:0]
	if free := uint64(cap(envs)); free < count {
		envs = make([]transport.Envelope[M], 0, count)
	}

	// From runs: fill the envelope headers first.
	prev := int64(from)
	for covered := uint64(0); covered < count; {
		delta, n, err := Varint(src[pos:])
		if err != nil {
			return 0, 0, nil, err
		}
		pos += n
		length, n, err := Uvarint(src[pos:])
		if err != nil {
			return 0, 0, nil, err
		}
		pos += n
		f := prev + delta
		if f < 0 || f > math.MaxInt32 {
			return 0, 0, nil, fmt.Errorf("wire: v2 batch From %d out of range", f)
		}
		if length == 0 || length > count-covered {
			return 0, 0, nil, fmt.Errorf("wire: v2 batch run of %d envelopes with %d uncovered", length, count-covered)
		}
		for i := uint64(0); i < length; i++ {
			envs = append(envs, transport.Envelope[M]{From: transport.MachineID(f), To: to})
		}
		prev = f
		covered += length
	}

	// Words, one per envelope.
	for i := range envs {
		w, n, err := Uvarint(src[pos:])
		if err != nil {
			return 0, 0, nil, err
		}
		if w > math.MaxInt32 {
			return 0, 0, nil, fmt.Errorf("wire: envelope words %d out of range", w)
		}
		envs[i].Words = int32(w)
		pos += n
	}

	// Length-prefixed payload section: the prefix must account for
	// exactly the remaining bytes, and the codec must consume exactly
	// the prefix.
	plen, n, err := Uvarint(src[pos:])
	if err != nil {
		return 0, 0, nil, err
	}
	pos += n
	if plen != uint64(len(src)-pos) {
		return 0, 0, nil, fmt.Errorf("wire: v2 payload section claims %d bytes, %d remain", plen, len(src)-pos)
	}
	for i := range envs {
		msg, n, err := c.Decode(src[pos:])
		if err != nil {
			return 0, 0, nil, err
		}
		envs[i].Msg = msg
		pos += n
	}
	if pos != len(src) {
		return 0, 0, nil, fmt.Errorf("wire: %d trailing bytes after v2 batch", len(src)-pos)
	}
	return step, from, envs, nil
}

// BatchJobbed marks a job-scoped data frame: the byte sits where a
// batch version byte otherwise would, followed by the uvarint job ID
// and then a complete versioned batch (BatchV1 or BatchV2 body,
// unchanged). It is the framing extension that lets frames from
// different jobs share one standing mesh's persistent per-peer
// connections: a reader attached for job J rejects a straggler frame
// from job I != J instead of silently decoding it into the wrong run.
// Mixed-version interop is preserved — the job header wraps either
// batch version, and job-less endpoints keep shipping bare v1/v2
// batches.
const BatchJobbed = byte(0x03)

// AppendJobHeader appends a job-scope header: the BatchJobbed marker
// and the job ID. The caller appends a versioned batch (AppendBatchV1 /
// AppendBatchV2) immediately after.
func AppendJobHeader(dst []byte, job uint64) []byte {
	dst = append(dst, BatchJobbed)
	return AppendUvarint(dst, job)
}

// PeelJobHeader splits a data frame into its job scope and the inner
// versioned batch. Frames without a job header (bare v1/v2 batches from
// a job-less endpoint, or abort frames) return jobbed=false with rest
// aliasing src whole; job-scoped frames return the job ID and the inner
// batch bytes. The caller decides whether a bare frame is acceptable —
// a job-attached reader treats it as a protocol violation.
func PeelJobHeader(src []byte) (job uint64, rest []byte, jobbed bool, err error) {
	if len(src) == 0 || src[0] != BatchJobbed {
		return 0, src, false, nil
	}
	job, n, err := Uvarint(src[1:])
	if err != nil {
		return 0, nil, true, fmt.Errorf("wire: corrupt job header: %w", err)
	}
	return job, src[1+n:], true, nil
}

// BatchReport marks a report section: opaque bytes the sending machine
// attaches to a data frame for every receiver to read. It sits after
// the job header, when there is one, and before the batch version
// byte; the wire layer never interprets it. Frames without the section
// carry no report.
const BatchReport = byte(0x04)

// AppendReport appends a report section: the BatchReport marker, the
// uvarint length of rep, and rep itself. The caller appends a
// versioned batch immediately after.
func AppendReport(dst, rep []byte) []byte {
	dst = append(dst, BatchReport)
	dst = AppendUvarint(dst, uint64(len(rep)))
	return append(dst, rep...)
}

// PeelReport splits a frame into its report section and the bytes
// after it. A frame without the section returns has=false with rest
// aliasing src whole; otherwise rep aliases the section inside src.
func PeelReport(src []byte) (rep, rest []byte, has bool, err error) {
	if len(src) == 0 || src[0] != BatchReport {
		return nil, src, false, nil
	}
	c := Cursor{Src: src, Off: 1}
	rep = c.Bytes(c.Count(1))
	if c.Err != nil {
		return nil, nil, true, fmt.Errorf("wire: corrupt report section: %w", c.Err)
	}
	return rep, src[c.Off:], true, nil
}

// BatchAbort marks a blame frame: a failing endpoint's last words on a
// data connection, naming the machine it holds responsible before the
// connection closes. Readers that find one instead of a batch re-raise
// the blame as a machine-attributed error, which is what keeps failure
// attribution correct across cascading teardowns — the abort bytes
// precede the closing FIN in stream order, so a peer can always
// distinguish "this machine died" (bare EOF) from "this machine is
// tearing down because someone else died" (abort frame, then EOF).
const BatchAbort = byte(0xFF)

// AppendAbort appends a blame frame: the BatchAbort marker, the
// superstep in which the failure surfaced, and the suspect machine.
func AppendAbort(dst []byte, step int, suspect transport.MachineID) []byte {
	dst = append(dst, BatchAbort)
	dst = AppendUvarint(dst, uint64(step))
	return AppendUvarint(dst, uint64(suspect))
}

// DecodeAbort decodes a blame frame produced by AppendAbort.
func DecodeAbort(src []byte) (step int, suspect transport.MachineID, err error) {
	if len(src) == 0 || src[0] != BatchAbort {
		return 0, 0, fmt.Errorf("wire: not an abort frame")
	}
	pos := 1
	s, n, err := Uvarint(src[pos:])
	if err != nil {
		return 0, 0, err
	}
	pos += n
	m, _, err := Uvarint(src[pos:])
	if err != nil {
		return 0, 0, err
	}
	if m > math.MaxInt32 {
		return 0, 0, fmt.Errorf("wire: abort suspect %d out of range", m)
	}
	return int(s), transport.MachineID(m), nil
}

// UvarintLen returns the encoded size of x in bytes without encoding it.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// FrameSize returns the bytes a payload of the given length occupies on
// the wire once framed by WriteFrame: the uvarint length prefix plus the
// payload itself. Transports use it to account actual bytes-on-wire.
func FrameSize(payloadLen int) int {
	return UvarintLen(uint64(payloadLen)) + payloadLen
}

// WriteFrame writes a length-prefixed frame: uvarint payload length
// followed by the payload bytes. Byte-writers (bufio.Writer — every
// transport connection) take an allocation-free path: the header array
// of the generic path escapes through the io.Writer interface, which
// would put one allocation on every frame of the hot exchange loop.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	if bw, ok := w.(io.ByteWriter); ok {
		x := uint64(len(payload))
		for x >= 0x80 {
			if err := bw.WriteByte(byte(x) | 0x80); err != nil {
				return err
			}
			x >>= 7
		}
		if err := bw.WriteByte(byte(x)); err != nil {
			return err
		}
	} else {
		var hdr [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(hdr[:], uint64(len(payload)))
		if _, err := w.Write(hdr[:n]); err != nil {
			return err
		}
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame from r.
func ReadFrame(r io.ByteReader) ([]byte, error) {
	return ReadFrameInto(r, nil)
}

// frameChunk bounds how far ReadFrameInto grows a buffer ahead of the
// bytes that have actually arrived.
const frameChunk = 64 << 10

// ReadFrameInto is ReadFrame reusing buf's storage when it has the
// capacity, so a connection reading one frame per superstep can recycle
// its read buffer. The returned slice aliases buf on reuse; it is valid
// until the next ReadFrameInto call with the same buffer.
//
// A frame larger than buf grows a fresh buffer as its bytes arrive, each
// step by at most the larger of what was already read and frameChunk,
// so a length prefix alone cannot make the reader allocate up to
// MaxFrame.
func ReadFrameInto(r io.ByteReader, buf []byte) ([]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	br, ok := r.(io.Reader)
	if !ok {
		return nil, fmt.Errorf("wire: ReadFrameInto needs an io.Reader, got %T", r)
	}
	n := int(size)
	payload := buf[:0]
	for len(payload) < n {
		off := len(payload)
		payload = slices.Grow(payload, min(n-off, max(off, frameChunk)))
		payload = payload[:min(n, cap(payload))]
		if _, err := io.ReadFull(br, payload[off:]); err != nil {
			if err == io.EOF && off > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}
