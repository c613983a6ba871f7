package wire

import (
	"bytes"
	"testing"

	"kmachine/internal/transport"
)

// FuzzBatchDecode is the robustness fence of the versioned batch
// decoder: arbitrary bytes must never panic it, and whatever it accepts
// must survive a re-encode/decode round trip value-identically. The
// same input additionally seeds a constructive check — a batch built
// from the fuzzed bytes encodes and decodes back to itself — so one
// target covers both directions (decoder hardening and encoder/decoder
// identity) for the CI fuzz-smoke job, which can only drive a single
// -fuzz pattern.
func FuzzBatchDecode(f *testing.F) {
	c := pairCodec{}
	// Seed corpus: valid v2, valid version-framed v1, the legal empty
	// batch, and known-corrupt shapes from the unit tests.
	envs := []transport.Envelope[pairMsg]{
		{From: 1, To: 2, Words: 4, Msg: pairMsg{A: -9, B: 11}},
		{From: 1, To: 2, Words: 0, Msg: pairMsg{A: 0, B: 1}},
		{From: 3, To: 2, Words: 7, Msg: pairMsg{A: 5, B: 0}},
	}
	if seed, err := AppendBatchV2(nil, 3, 1, 2, envs, c); err == nil {
		f.Add(seed)
	}
	if seed, err := AppendBatchV1(nil, 3, 1, envs, c); err == nil {
		f.Add(seed)
	}
	if seed, err := AppendBatchV2(nil, 0, 0, 2, nil, c); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{BatchV2, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, src []byte) {
		// Decoder hardening: must reject or accept without panicking,
		// and an accepted batch must re-encode into a decodable batch
		// with identical values (the encoding itself may differ — the
		// decoder accepts non-canonical run splits the encoder never
		// produces).
		const sender = transport.MachineID(1)
		const to = transport.MachineID(2)
		step, from, envs, err := DecodeBatchAny(src, c, sender, to)
		if err == nil {
			reenc, err := AppendBatchV2(nil, step, from, to, envs, c)
			if err != nil {
				// A v1 body may carry envelopes the v2 encoder rejects
				// (To != frame destination); that asymmetry is fine.
				if len(src) > 0 && src[0] == BatchV2 {
					t.Fatalf("v2 re-encode of decoded batch failed: %v", err)
				}
			} else {
				step2, from2, envs2, err := DecodeBatchAny(reenc, c, from, to)
				if err != nil {
					t.Fatalf("re-encoded batch rejected: %v", err)
				}
				if step2 != step || from2 != from || len(envs2) != len(envs) {
					t.Fatalf("re-encode header drift: (%d,%d,%d) -> (%d,%d,%d)",
						step, from, len(envs), step2, from2, len(envs2))
				}
				for i := range envs {
					if envs[i] != envs2[i] {
						t.Fatalf("re-encode envelope %d drift: %+v -> %+v", i, envs[i], envs2[i])
					}
				}
			}
		}

		// Constructive identity: derive a well-formed batch from the
		// fuzz bytes and assert exact round-trip through both formats.
		built := batchFromBytes(src)
		bstep, bfrom := len(src)%4096, transport.MachineID(len(src)%64)
		v2, err := AppendBatchV2(nil, bstep, bfrom, to, built, c)
		if err != nil {
			t.Fatalf("encode of well-formed batch failed: %v", err)
		}
		v1, err := AppendBatchV1(nil, bstep, bfrom, built, c)
		if err != nil {
			t.Fatalf("v1 encode of well-formed batch failed: %v", err)
		}
		for _, enc := range [][]byte{v2, v1} {
			gstep, gfrom, genvs, err := DecodeBatchAny(enc, c, bfrom, to)
			if err != nil {
				t.Fatalf("round trip decode failed: %v", err)
			}
			if gstep != bstep || gfrom != bfrom || len(genvs) != len(built) {
				t.Fatalf("round trip header: got (%d,%d,%d), want (%d,%d,%d)",
					gstep, gfrom, len(genvs), bstep, bfrom, len(built))
			}
			for i := range built {
				if genvs[i] != built[i] {
					t.Fatalf("round trip envelope %d: got %+v, want %+v", i, genvs[i], built[i])
				}
			}
		}
	})
}

// FuzzJobHeader hardens PeelJobHeader and PeelReport, which parse the
// first bytes of every data frame a reader receives from a peer: they
// must never panic, a frame without the job header (or without the
// report section) must come back whole, and a job header accepted must
// round-trip through AppendJobHeader — same job ID, same inner bytes,
// and the very same bytes whenever the input's job ID was minimally
// encoded (the encoder's only form; the decoder, like binary.Uvarint,
// also accepts zero-padded varints). A report section accepted must
// round-trip through AppendReport the same way.
func FuzzJobHeader(f *testing.F) {
	for _, job := range []uint64{0, 1, 127, 128, 1 << 35, ^uint64(0)} {
		f.Add(AppendJobHeader(nil, job))
	}
	if batch, err := AppendBatchV2(AppendJobHeader(nil, 42), 3, 1, 2,
		[]transport.Envelope[pairMsg]{{From: 1, To: 2, Words: 4, Msg: pairMsg{A: -9, B: 11}}}, pairCodec{}); err == nil {
		f.Add(batch)
	}
	f.Add([]byte{BatchJobbed})
	f.Add([]byte{BatchJobbed, 0x80})
	f.Add([]byte{BatchV2, 0, 0})
	f.Add([]byte{})
	f.Add(append(AppendReport(AppendJobHeader(nil, 5), []byte{1, 2, 3}), BatchV2, 0, 0))
	f.Add(AppendReport(nil, nil))
	f.Add([]byte{BatchReport, 0x05, 1})

	f.Fuzz(func(t *testing.T, src []byte) {
		job, rest, jobbed, err := PeelJobHeader(src)
		switch {
		case !jobbed:
			if err != nil || !bytes.Equal(rest, src) {
				t.Fatalf("job-less frame not returned whole: rest=% x err=%v", rest, err)
			}
		case err != nil:
			return
		default:
			if len(rest) >= len(src) || !bytes.Equal(src[len(src)-len(rest):], rest) {
				t.Fatalf("rest % x is not a proper suffix of % x", rest, src)
			}
			re := append(AppendJobHeader(nil, job), rest...)
			job2, rest2, jobbed2, err := PeelJobHeader(re)
			if err != nil || !jobbed2 || job2 != job || !bytes.Equal(rest2, rest) {
				t.Fatalf("re-encoded header: job %d -> %d, jobbed=%v, err=%v", job, job2, jobbed2, err)
			}
			if len(src)-len(rest) == 1+UvarintLen(job) && !bytes.Equal(re, src) {
				t.Fatalf("minimal header did not re-encode byte-identically: % x -> % x", src, re)
			}
		}

		rep, after, has, err := PeelReport(rest)
		if !has {
			if err != nil || !bytes.Equal(after, rest) {
				t.Fatalf("report-less frame not returned whole: rest=% x err=%v", after, err)
			}
			return
		}
		if err != nil {
			return
		}
		re := append(AppendReport(nil, rep), after...)
		rep2, after2, has2, err := PeelReport(re)
		if err != nil || !has2 || !bytes.Equal(rep2, rep) || !bytes.Equal(after2, after) {
			t.Fatalf("re-encoded report: % x -> % x, has=%v, err=%v", rep, rep2, has2, err)
		}
		if len(rest)-len(after) == 1+UvarintLen(uint64(len(rep)))+len(rep) && !bytes.Equal(re, rest) {
			t.Fatalf("minimal report section did not re-encode byte-identically: % x -> % x", rest, re)
		}
	})
}

// batchFromBytes deterministically shapes fuzz input into a valid
// single-destination batch: each input byte contributes one envelope
// (capped so a megabyte mutation doesn't stall the fuzzer on a
// million-envelope batch), with From/Words/payload derived from a
// rolling state so runs of equal From (the run-length-encoded path)
// appear naturally.
func batchFromBytes(src []byte) []transport.Envelope[pairMsg] {
	if len(src) > 512 {
		src = src[:512]
	}
	envs := make([]transport.Envelope[pairMsg], 0, len(src))
	from := transport.MachineID(0)
	for i, b := range src {
		if b&0x07 == 0 { // change From on ~1/8 of bytes: real run lengths
			from = transport.MachineID(b>>3) % 64
		}
		envs = append(envs, transport.Envelope[pairMsg]{
			From:  from,
			To:    2,
			Words: int32(b),
			Msg:   pairMsg{A: int64(i) - int64(b), B: uint64(b) << uint(i%8)},
		})
	}
	return envs
}

// TestFuzzSeedsPass runs the seed corpus through the fuzz body once in
// a plain `go test`, so a broken seed fails fast everywhere instead of
// only in the -fuzz smoke job.
func TestFuzzSeedsPass(t *testing.T) {
	c := pairCodec{}
	envs := []transport.Envelope[pairMsg]{
		{From: 1, To: 2, Words: 4, Msg: pairMsg{A: -9, B: 11}},
		{From: 3, To: 2, Words: 7, Msg: pairMsg{A: 5, B: 0}},
	}
	v2, err := AppendBatchV2(nil, 3, 1, 2, envs, c)
	if err != nil {
		t.Fatal(err)
	}
	s, fr, got, err := DecodeBatchAny(v2, c, 1, 2)
	if err != nil || s != 3 || fr != 1 || len(got) != 2 {
		t.Fatalf("seed decode: step=%d from=%d n=%d err=%v", s, fr, len(got), err)
	}
	if !bytes.Equal(v2[:1], []byte{BatchV2}) {
		t.Fatalf("v2 batch does not start with the version byte: % x", v2[:2])
	}
}
