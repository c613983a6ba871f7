package node

// Fuzzing the node control plane: every decoder here reads bytes a
// peer process sent over a control connection — the per-superstep
// report, the coordinator's verdict (whose stop payload is core's
// varint Stats record), and the job begin/end frames. None may panic
// on any input, and whatever one accepts must survive a trip through
// its encoder unchanged.
//
// Longer local runs: go test -fuzz FuzzControlPlane ./internal/transport/node

import (
	"bytes"
	"reflect"
	"testing"

	"kmachine/internal/core"
)

func FuzzControlPlane(f *testing.F) {
	rep := report{done: true, emitted: true, messages: 7, linkWords: []int64{0, 3, 0, 12}}
	f.Add(rep.appendEncode(nil, 5), uint64(5))
	failed := report{messages: 1, linkWords: []int64{1, 0}, err: "machine 1 panicked"}
	f.Add(failed.appendEncode(nil, 0), uint64(0))
	stop := encodeStop(&core.Stats{Rounds: 9, Supersteps: 3, Messages: 4, Words: 40,
		RecvWords: []int64{10, 30}, SentWords: []int64{20, 20}, MaxRecvWords: 30,
		PerSuperstep: []core.SuperstepStat{{Rounds: 3, Messages: 2, Words: 20}}})
	f.Add(stop, uint64(3))
	f.Add([]byte{verdictContinue}, uint64(1))
	f.Add(encodeAbort("machine 2: boom"), uint64(2))
	// A DropPerSuperstep run's final Stats, and a truncated stop verdict.
	f.Add(encodeStop(&core.Stats{Rounds: 1 << 40, Supersteps: 41, RecvWords: []int64{0, 0, 7}, SentWords: []int64{7, 0, 0}}), uint64(41))
	f.Add(stop[:len(stop)-1], uint64(0))
	f.Add(encodeJobCtrl(ctrlJobBegin, 17), uint64(17))
	f.Add(encodeJobCtrl(ctrlJobEnd, 1<<40), uint64(1<<40))

	f.Fuzz(func(t *testing.T, b []byte, n uint64) {
		step := int(n & 0x7fffffff)
		var got report
		if decodeReportInto(&got, b, step) == nil {
			var again report
			if err := decodeReportInto(&again, got.appendEncode(nil, step), step); err != nil {
				t.Fatalf("re-encoded report rejected: %v", err)
			}
			if !reflect.DeepEqual(normReport(got), normReport(again)) {
				t.Fatalf("report round trip: decoded %+v, re-decoded %+v", got, again)
			}
		}

		if v, err := decodeVerdict(b); err == nil {
			// Re-encoding an accepted verdict must decode to the same
			// verdict — Stats and all — and be a fixed point.
			enc := reencodeVerdict(v)
			again, err := decodeVerdict(enc)
			if err != nil || !reflect.DeepEqual(again, v) || !bytes.Equal(reencodeVerdict(again), enc) {
				t.Fatalf("verdict round trip: decoded %+v, re-decoded %+v, %v", v, again, err)
			}
		}

		if len(b) > 0 && decodeJobCtrl(b, b[0], n) == nil {
			if err := decodeJobCtrl(encodeJobCtrl(b[0], n), b[0], n); err != nil {
				t.Fatalf("job control round trip: %v", err)
			}
		}
	})
}

// reencodeVerdict is the coordinator's encoding of an accepted verdict.
func reencodeVerdict(v verdict) []byte {
	switch v.kind {
	case verdictStop:
		return encodeStop(v.stats)
	case verdictAbort:
		return encodeAbort(v.errMsg)
	}
	return []byte{v.kind}
}

// normReport maps the two encodings of "no link words" (nil and empty)
// to one, since a decoded report reuses its slice.
func normReport(r report) report {
	if len(r.linkWords) == 0 {
		r.linkWords = nil
	}
	return r
}
