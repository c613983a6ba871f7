package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"kmachine/internal/rng"
	"kmachine/internal/transport"
)

// pairMsg is a minimal payload for envelope/batch tests.
type pairMsg struct {
	A int64
	B uint64
}

type pairCodec struct{}

func (pairCodec) Append(dst []byte, m pairMsg) ([]byte, error) {
	dst = AppendVarint(dst, m.A)
	return AppendUvarint(dst, m.B), nil
}

func (pairCodec) Decode(src []byte) (pairMsg, int, error) {
	a, n, err := Varint(src)
	if err != nil {
		return pairMsg{}, 0, err
	}
	b, m, err := Uvarint(src[n:])
	if err != nil {
		return pairMsg{}, 0, err
	}
	return pairMsg{A: a, B: b}, n + m, nil
}

func TestVarintRoundTrip(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 2000; i++ {
		u := r.Uint64() >> uint(r.Intn(64))
		s := int64(r.Uint64()) >> uint(r.Intn(64))
		buf := AppendUvarint(nil, u)
		gu, n, err := Uvarint(buf)
		if err != nil || gu != u || n != len(buf) {
			t.Fatalf("uvarint %d: got %d (n=%d, err=%v)", u, gu, n, err)
		}
		buf = AppendVarint(nil, s)
		gs, n, err := Varint(buf)
		if err != nil || gs != s || n != len(buf) {
			t.Fatalf("varint %d: got %d (n=%d, err=%v)", s, gs, n, err)
		}
	}
}

func TestEnvelopeRoundTripProperty(t *testing.T) {
	r := rng.New(7)
	c := pairCodec{}
	for i := 0; i < 2000; i++ {
		want := transport.Envelope[pairMsg]{
			From:  transport.MachineID(r.Intn(1 << 20)),
			To:    transport.MachineID(r.Intn(1 << 20)),
			Words: int32(r.Intn(1 << 30)),
			Msg:   pairMsg{A: int64(r.Uint64()) >> uint(r.Intn(64)), B: r.Uint64()},
		}
		buf, err := AppendEnvelope(nil, want, c)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeEnvelope(buf, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || n != len(buf) {
			t.Fatalf("round trip: got %+v (n=%d), want %+v (len=%d)", got, n, want, len(buf))
		}
	}
}

func TestEnvelopeRejectsNegativeHeaders(t *testing.T) {
	c := pairCodec{}
	for _, e := range []transport.Envelope[pairMsg]{
		{From: -1, To: 0, Words: 1},
		{From: 0, To: -2, Words: 1},
		{From: 0, To: 0, Words: -1},
	} {
		if _, err := AppendEnvelope(nil, e, c); err == nil {
			t.Errorf("envelope %+v encoded without error", e)
		}
	}
}

func TestBatchRoundTripProperty(t *testing.T) {
	r := rng.New(42)
	c := pairCodec{}
	for trial := 0; trial < 200; trial++ {
		step := r.Intn(1 << 16)
		from := transport.MachineID(r.Intn(64))
		envs := make([]transport.Envelope[pairMsg], r.Intn(50))
		for i := range envs {
			envs[i] = transport.Envelope[pairMsg]{
				From:  from,
				To:    transport.MachineID(r.Intn(64)),
				Words: int32(r.Intn(1000)),
				Msg:   pairMsg{A: int64(r.Uint64()) >> 3, B: r.Uint64()},
			}
		}
		buf, err := AppendBatch(nil, step, from, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		gotStep, gotFrom, gotEnvs, err := DecodeBatch(buf, c)
		if err != nil {
			t.Fatal(err)
		}
		if gotStep != step || gotFrom != from || len(gotEnvs) != len(envs) {
			t.Fatalf("batch header: got (%d,%d,%d), want (%d,%d,%d)",
				gotStep, gotFrom, len(gotEnvs), step, from, len(envs))
		}
		for i := range envs {
			if gotEnvs[i] != envs[i] {
				t.Fatalf("envelope %d: got %+v, want %+v", i, gotEnvs[i], envs[i])
			}
		}
	}
}

func TestBatchRejectsCorruption(t *testing.T) {
	c := pairCodec{}
	buf, err := AppendBatch(nil, 3, 1, []transport.Envelope[pairMsg]{
		{From: 1, To: 2, Words: 4, Msg: pairMsg{A: -9, B: 11}},
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeBatch(buf[:len(buf)-1], c); err == nil {
		t.Error("truncated batch decoded without error")
	}
	if _, _, _, err := DecodeBatch(append(buf, 0xff), c); err == nil {
		t.Error("batch with trailing bytes decoded without error")
	}
	huge := AppendUvarint(nil, 0)
	huge = AppendUvarint(huge, 0)
	huge = AppendUvarint(huge, 1<<40) // absurd count, no envelopes
	if _, _, _, err := DecodeBatch(huge, c); err == nil {
		t.Error("batch with absurd count decoded without error")
	}
}

// v2Batch builds a random single-destination batch (the shape the TCP
// transport ships): every envelope addressed to `to`, From values in
// runs so the run-length encoding path is exercised.
func v2Batch(r *rng.RNG, from, to transport.MachineID, n int) []transport.Envelope[pairMsg] {
	envs := make([]transport.Envelope[pairMsg], 0, n)
	f := from
	for len(envs) < n {
		if r.Intn(3) == 0 {
			f = transport.MachineID(r.Intn(64))
		}
		envs = append(envs, transport.Envelope[pairMsg]{
			From:  f,
			To:    to,
			Words: int32(r.Intn(1000)),
			Msg:   pairMsg{A: int64(r.Uint64()) >> 3, B: r.Uint64()},
		})
	}
	return envs
}

func TestBatchV2RoundTripProperty(t *testing.T) {
	r := rng.New(271)
	c := pairCodec{}
	for trial := 0; trial < 300; trial++ {
		step := r.Intn(1 << 16)
		from := transport.MachineID(r.Intn(64))
		to := transport.MachineID(r.Intn(64))
		envs := v2Batch(r, from, to, r.Intn(50))
		buf, err := AppendBatchV2(nil, step, from, to, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		gotStep, gotFrom, gotEnvs, err := DecodeBatchAny(buf, c, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if gotStep != step || gotFrom != from || len(gotEnvs) != len(envs) {
			t.Fatalf("batch header: got (%d,%d,%d), want (%d,%d,%d)",
				gotStep, gotFrom, len(gotEnvs), step, from, len(envs))
		}
		for i := range envs {
			if gotEnvs[i] != envs[i] {
				t.Fatalf("envelope %d: got %+v, want %+v", i, gotEnvs[i], envs[i])
			}
		}
	}
}

// TestBatchCrossVersionDecode: the same envelopes encoded as a
// version-framed v1 batch and as a v2 batch must decode to identical
// values through the same version-dispatching entry point — the interop
// guarantee that lets endpoints of different wire versions share a mesh.
func TestBatchCrossVersionDecode(t *testing.T) {
	r := rng.New(99)
	c := pairCodec{}
	for trial := 0; trial < 100; trial++ {
		step := r.Intn(1 << 12)
		from := transport.MachineID(r.Intn(32))
		to := transport.MachineID(r.Intn(32))
		envs := v2Batch(r, from, to, r.Intn(30))
		v1, err := AppendBatchV1(nil, step, from, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := AppendBatchV2(nil, step, from, to, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		s1, f1, e1, err := DecodeBatchAny(v1, c, from, to)
		if err != nil {
			t.Fatalf("v1 decode: %v", err)
		}
		s2, f2, e2, err := DecodeBatchAny(v2, c, from, to)
		if err != nil {
			t.Fatalf("v2 decode: %v", err)
		}
		if s1 != s2 || f1 != f2 || len(e1) != len(e2) {
			t.Fatalf("cross-version header mismatch: v1 (%d,%d,%d) v2 (%d,%d,%d)",
				s1, f1, len(e1), s2, f2, len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("envelope %d: v1 %+v, v2 %+v", i, e1[i], e2[i])
			}
		}
	}
}

// TestBatchV2SmallerOnTransportShape pins the format's raison d'être:
// on the batch shape the TCP transport actually ships — every envelope
// From the frame's sender, To its destination — v2 beats the legacy v1
// encoding once a batch holds a few envelopes, and the saving grows
// linearly (about two bytes per envelope for single-byte machine IDs).
func TestBatchV2SmallerOnTransportShape(t *testing.T) {
	c := pairCodec{}
	for _, n := range []int{3, 10, 100, 1000} {
		envs := make([]transport.Envelope[pairMsg], n)
		for i := range envs {
			envs[i] = transport.Envelope[pairMsg]{From: 5, To: 9, Words: int32(i % 7), Msg: pairMsg{A: int64(i), B: uint64(i)}}
		}
		v1, err := AppendBatch(nil, 12, 5, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := AppendBatchV2(nil, 12, 5, 9, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(v2) >= len(v1) {
			t.Errorf("n=%d: v2 encoding %d bytes, legacy v1 %d bytes — no saving", n, len(v2), len(v1))
		}
		// 2 bytes per envelope (From + To elided) minus the constant
		// format overhead (version byte, one run, payload prefix).
		// overhead (version byte, one run, payload prefix — each field a
		// few varint bytes).
		if saved, want := len(v1)-len(v2), 2*n-8; saved < want {
			t.Errorf("n=%d: saved only %d bytes, want >= %d", n, saved, want)
		}
	}
}

func TestBatchV2RejectsCorruption(t *testing.T) {
	c := pairCodec{}
	envs := []transport.Envelope[pairMsg]{
		{From: 1, To: 2, Words: 4, Msg: pairMsg{A: -9, B: 11}},
		{From: 3, To: 2, Words: 7, Msg: pairMsg{A: 5, B: 0}},
	}
	buf, err := AppendBatchV2(nil, 3, 1, 2, envs, c)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the pristine encoding decodes.
	if _, _, _, err := DecodeBatchAny(buf, c, 1, 2); err != nil {
		t.Fatalf("pristine v2 batch rejected: %v", err)
	}
	// Truncation at every boundary must be detected.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, _, err := DecodeBatchAny(buf[:cut], c, 1, 2); err == nil {
			t.Errorf("v2 batch truncated to %d/%d bytes decoded without error", cut, len(buf))
		}
	}
	if _, _, _, err := DecodeBatchAny(append(append([]byte(nil), buf...), 0xff), c, 1, 2); err == nil {
		t.Error("v2 batch with trailing bytes decoded without error")
	}
	if _, _, _, err := DecodeBatchAny([]byte{0x7f}, c, 1, 2); err == nil {
		t.Error("unknown batch version decoded without error")
	}
	if _, _, _, err := DecodeBatchAny(nil, c, 1, 2); err == nil {
		t.Error("empty batch frame decoded without error")
	}
	// Absurd count with no envelope bytes behind it.
	huge := []byte{BatchV2}
	huge = AppendUvarint(huge, 0)
	huge = AppendUvarint(huge, 1<<40)
	if _, _, _, err := DecodeBatchAny(huge, c, 1, 2); err == nil {
		t.Error("v2 batch with absurd count decoded without error")
	}
	// A run whose delta drives From negative.
	neg := []byte{BatchV2}
	neg = AppendUvarint(neg, 0) // step
	neg = AppendUvarint(neg, 1) // sender
	neg = AppendUvarint(neg, 1) // count
	neg = AppendVarint(neg, -5) // delta: From = 1-5 = -4
	neg = AppendUvarint(neg, 1) // run length
	neg = AppendUvarint(neg, 0) // words
	neg = AppendUvarint(neg, 0) // payloadLen
	if _, _, _, err := DecodeBatchAny(neg, c, 1, 2); err == nil {
		t.Error("v2 batch with negative From decoded without error")
	}
	// A zero-length run (would never terminate coverage).
	zero := []byte{BatchV2}
	zero = AppendUvarint(zero, 0)
	zero = AppendUvarint(zero, 1) // count 1
	zero = AppendVarint(zero, 0)
	zero = AppendUvarint(zero, 0) // run length 0
	if _, _, _, err := DecodeBatchAny(zero, c, 1, 2); err == nil {
		t.Error("v2 batch with zero-length run decoded without error")
	}
	// Payload length prefix that disagrees with the remaining bytes.
	lie, err := AppendBatchV2(nil, 3, 1, 2, envs[:1], c)
	if err != nil {
		t.Fatal(err)
	}
	lie = append(lie, 0x00) // one trailing byte the prefix does not cover
	if _, _, _, err := DecodeBatchAny(lie, c, 1, 2); err == nil {
		t.Error("v2 batch with lying payload prefix decoded without error")
	}
}

func TestAppendBatchV2RejectsForeignDestination(t *testing.T) {
	c := pairCodec{}
	envs := []transport.Envelope[pairMsg]{{From: 0, To: 3, Words: 1}}
	if _, err := AppendBatchV2(nil, 0, 0, 2, envs, c); err == nil {
		t.Error("v2 batch accepted an envelope addressed to a different machine")
	}
	if _, err := AppendBatchV2(nil, 0, 0, 3, []transport.Envelope[pairMsg]{{From: 0, To: 3, Words: -1}}, c); err == nil {
		t.Error("v2 batch accepted negative Words")
	}
	if _, err := AppendBatchV2(nil, 0, 0, 3, []transport.Envelope[pairMsg]{{From: -1, To: 3, Words: 1}}, c); err == nil {
		t.Error("v2 batch accepted negative From")
	}
}

func TestFrameSize(t *testing.T) {
	r := rng.New(5)
	c := pairCodec{}
	for trial := 0; trial < 50; trial++ {
		from := transport.MachineID(r.Intn(64))
		to := transport.MachineID(r.Intn(64))
		envs := v2Batch(r, from, to, r.Intn(40))
		enc, err := AppendBatchV2(nil, r.Intn(1000), from, to, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, enc); err != nil {
			t.Fatal(err)
		}
		if got := FrameSize(len(enc)); got != buf.Len() {
			t.Errorf("FrameSize(%d) = %d, actual frame is %d bytes", len(enc), got, buf.Len())
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, p := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame payload: got %d bytes, want %d", len(got), len(p))
		}
	}
	if _, err := ReadFrame(r); err == nil {
		t.Error("read past final frame succeeded")
	}
}

func TestJobHeaderRoundTrip(t *testing.T) {
	r := rng.New(19)
	c := pairCodec{}
	for trial := 0; trial < 100; trial++ {
		job := r.Uint64() >> uint(r.Intn(64))
		step := r.Intn(1000)
		from := transport.MachineID(r.Intn(8))
		to := transport.MachineID(r.Intn(8))
		envs := v2Batch(r, from, to, r.Intn(20))

		// Job header wraps either batch version byte-identically.
		for _, v := range []byte{BatchV1, BatchV2} {
			enc := AppendJobHeader(nil, job)
			hdr := len(enc)
			var err error
			if v == BatchV1 {
				enc, err = AppendBatchV1(enc, step, from, envs, c)
			} else {
				enc, err = AppendBatchV2(enc, step, from, to, envs, c)
			}
			if err != nil {
				t.Fatal(err)
			}
			gotJob, rest, jobbed, err := PeelJobHeader(enc)
			if err != nil || !jobbed || gotJob != job {
				t.Fatalf("peel: job=%d jobbed=%v err=%v, want job=%d", gotJob, jobbed, err, job)
			}
			if len(rest) != len(enc)-hdr {
				t.Fatalf("peel v%d: rest %d bytes, want %d", v, len(rest), len(enc)-hdr)
			}
			gotStep, gotFrom, gotEnvs, err := DecodeBatchAnyInto(rest, c, from, to, nil)
			if err != nil {
				t.Fatal(err)
			}
			if gotStep != step || gotFrom != from || len(gotEnvs) != len(envs) {
				t.Fatalf("inner batch v%d: got (%d,%d,%d), want (%d,%d,%d)",
					v, gotStep, gotFrom, len(gotEnvs), step, from, len(envs))
			}
			for i := range envs {
				if gotEnvs[i] != envs[i] {
					t.Fatalf("envelope %d: got %+v, want %+v", i, gotEnvs[i], envs[i])
				}
			}
		}
	}
}

func TestJobHeaderBarePassthrough(t *testing.T) {
	c := pairCodec{}
	enc, err := AppendBatchV2(nil, 5, 1, 2, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	job, rest, jobbed, err := PeelJobHeader(enc)
	if err != nil || jobbed || job != 0 {
		t.Fatalf("bare frame: job=%d jobbed=%v err=%v, want passthrough", job, jobbed, err)
	}
	if &rest[0] != &enc[0] || len(rest) != len(enc) {
		t.Fatal("bare frame: rest does not alias src")
	}
	// Abort frames are job-agnostic: 0xFF never collides with 0x03.
	ab := AppendAbort(nil, 7, 3)
	if _, _, jobbed, err := PeelJobHeader(ab); err != nil || jobbed {
		t.Fatalf("abort frame peeled as jobbed (err=%v)", err)
	}
}

func TestJobHeaderRejectsCorruption(t *testing.T) {
	// Truncated uvarint after the marker.
	for _, src := range [][]byte{
		{BatchJobbed},
		{BatchJobbed, 0x80},
		{BatchJobbed, 0xFF, 0xFF},
	} {
		if _, _, jobbed, err := PeelJobHeader(src); err == nil || !jobbed {
			t.Errorf("corrupt header % x: jobbed=%v err=%v, want error", src, jobbed, err)
		}
	}
	// A jobbed frame handed to a job-less decoder is an unknown version.
	c := pairCodec{}
	enc, err := AppendBatchV1(AppendJobHeader(nil, 42), 1, 0, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeBatchAnyInto(enc, c, 0, 1, nil); err == nil {
		t.Error("job-less decoder accepted a jobbed frame")
	}
}

func TestReportSectionRoundTrip(t *testing.T) {
	c := pairCodec{}
	batch, err := AppendBatchV2(nil, 3, 1, 2, []transport.Envelope[pairMsg]{{From: 1, To: 2, Words: 4}}, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range [][]byte{{}, {7}, bytes.Repeat([]byte{0x80}, 300)} {
		// The section sits between the job header and the batch.
		enc := append(AppendReport(AppendJobHeader(nil, 9), rep), batch...)
		job, rest, jobbed, err := PeelJobHeader(enc)
		if err != nil || !jobbed || job != 9 {
			t.Fatalf("peel job: job=%d jobbed=%v err=%v", job, jobbed, err)
		}
		got, rest, has, err := PeelReport(rest)
		if err != nil || !has || !bytes.Equal(got, rep) {
			t.Fatalf("peel report: got % x has=%v err=%v, want % x", got, has, err, rep)
		}
		if !bytes.Equal(rest, batch) {
			t.Fatalf("after the report: % x, want the batch % x", rest, batch)
		}
	}
	// A frame without the section comes back whole, job header or not.
	for _, src := range [][]byte{batch, AppendJobHeader(nil, 1), {}} {
		got, rest, has, err := PeelReport(src)
		if err != nil || has || got != nil || !bytes.Equal(rest, src) {
			t.Fatalf("bare % x: report % x has=%v err=%v", src, got, has, err)
		}
	}
	// Truncated sections are errors, never a short read.
	for _, src := range [][]byte{{BatchReport}, {BatchReport, 0x80}, {BatchReport, 3, 1, 2}} {
		if _, _, has, err := PeelReport(src); err == nil || !has {
			t.Errorf("corrupt section % x: has=%v err=%v, want error", src, has, err)
		}
	}
}

// TestReadFrameGrowsWithArrivedBytes: a length prefix claiming 512 MiB
// followed by EOF must fail without allocating anywhere near the claim,
// while a recycled buffer with room still reads with no allocation.
func TestReadFrameGrowsWithArrivedBytes(t *testing.T) {
	prefix := binary.AppendUvarint(nil, 512<<20)
	if len(prefix) != 5 {
		t.Fatalf("prefix is %d bytes, want 5", len(prefix))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrameInto(bytes.NewReader(append(prefix, 1, 2, 3)), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 512 MiB frame read without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("reading a 5-byte prefix and 3 payload bytes allocated %d bytes", grew)
	}

	// A frame larger than one growth step still reads whole.
	want := bytes.Repeat([]byte{0x5A}, 3*frameChunk+17)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameInto(bufio.NewReader(bytes.NewReader(buf.Bytes())), nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("multi-chunk frame: %d bytes, err %v", len(got), err)
	}

	// Recycled storage with enough capacity takes the zero-alloc path.
	src := bytes.NewReader(buf.Bytes())
	r := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(10, func() {
		src.Reset(buf.Bytes())
		r.Reset(src)
		if got, err = ReadFrameInto(r, got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("recycled read allocated %.0f times, want 0", allocs)
	}
}
