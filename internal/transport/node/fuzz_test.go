package node

// Fuzzing the frame report: every node decodes its peers' per-superstep
// reports from the headers of the data frames they sent. The decoder
// must never panic on any input, and whatever it accepts must survive a
// trip through the encoder unchanged.
//
// Longer local runs: go test -fuzz FuzzFrameReport ./internal/transport/node

import (
	"reflect"
	"testing"
)

func FuzzFrameReport(f *testing.F) {
	rep := report{done: true, emitted: true, messages: 7, linkWords: []int64{0, 3, 0, 12}}
	valid := rep.appendEncode(nil, 5)
	f.Add(valid, uint64(5))
	failed := report{messages: 1, linkWords: []int64{1, 0}, err: "machine 1 panicked"}
	f.Add(failed.appendEncode(nil, 0), uint64(0))
	// A quiescent report with no links, and one with a very large load.
	f.Add((&report{done: true}).appendEncode(nil, 1), uint64(1))
	huge := report{emitted: true, messages: 1 << 40, linkWords: []int64{0, 0, 1 << 40}}
	f.Add(huge.appendEncode(nil, 41), uint64(41))
	// Truncated, for another superstep, and a link count past the end.
	f.Add(valid[:len(valid)-1], uint64(5))
	f.Add(valid, uint64(6))
	f.Add([]byte{0, 1, 0, 0xff, 0xff, 0x03}, uint64(1))
	f.Add([]byte{}, uint64(0))
	// Error text that is not UTF-8.
	bad := report{linkWords: []int64{0, 9}, err: "\xff\xfe boom"}
	f.Add(bad.appendEncode(nil, 1<<20), uint64(1<<20))

	f.Fuzz(func(t *testing.T, b []byte, n uint64) {
		step := int(n & 0x7fffffff)
		var got report
		if decodeReportInto(&got, b, step) != nil {
			return
		}
		var again report
		if err := decodeReportInto(&again, got.appendEncode(nil, step), step); err != nil {
			t.Fatalf("re-encoded report rejected: %v", err)
		}
		if !reflect.DeepEqual(normReport(got), normReport(again)) {
			t.Fatalf("report round trip: decoded %+v, re-decoded %+v", got, again)
		}
	})
}

// normReport maps the two encodings of "no link words" (nil and empty)
// to one, since a decoded report reuses its slice.
func normReport(r report) report {
	if len(r.linkWords) == 0 {
		r.linkWords = nil
	}
	return r
}
