package experiments

import (
	"fmt"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/transport"
)

// E20WireBytes compares the paper's cost model against the physical
// layer: every registered algorithm runs twice on the loopback-TCP
// substrate — once with the compact v2 batch format, once with the
// legacy v1 — and the table reports the model words (identical in both
// runs, and identical to the loopback transport's, by the accounting
// split) next to the actual bytes each wire format shipped. Two ratios
// fall out:
//
//   - bytes/word — the physical cost of one model word, i.e. the
//     encoding efficiency plus the protocol overhead (length prefixes
//     and empty-batch frames) the model abstracts away;
//   - v2 saving — the fraction of v1's bytes the v2 format eliminates
//     by eliding per-envelope To/From headers (doc in transport/wire).
//
// The run pairs double as an end-to-end cross-version check: Stats must
// be bit-identical between wire formats, which the table verifies.
func E20WireBytes(cfg Config) (Table, error) {
	t := Table{
		ID:     "E20",
		Title:  "bytes-on-wire: model words vs physical bytes, v1 vs v2 batch format",
		Claim:  "§1.1 cost model: rounds/words are substrate-independent; the wire format only changes physical bytes",
		Header: []string{"algo", "k", "n", "words", "v2 bytes", "v1 bytes", "v2 saving", "bytes/word", "stats equal"},
	}
	n := 400
	if cfg.Quick {
		n = 150
	}
	allEqual := true
	var totV1, totV2 int64
	for _, entry := range algo.Entries() {
		prob := algo.Problem{N: n, K: 8, Seed: cfg.Seed + 271}
		switch entry.Name {
		case "pagerank":
			prob.N = n / 2
		case "conncomp":
			prob.EdgeP = 2 / float64(n)
		}
		v2, err := entry.Run(prob, transport.TCP)
		if err != nil {
			return t, fmt.Errorf("%s: tcp/v2 run: %w", entry.Name, err)
		}
		v1, err := entry.Run(prob, transport.TCPWireV1)
		if err != nil {
			return t, fmt.Errorf("%s: tcp/v1 run: %w", entry.Name, err)
		}
		equal := v2.Stats.Rounds == v1.Stats.Rounds &&
			v2.Stats.Words == v1.Stats.Words &&
			v2.Stats.Messages == v1.Stats.Messages &&
			v2.Hash == v1.Hash
		allEqual = allEqual && equal
		saving := 0.0
		if v1.Wire.BytesSent > 0 {
			saving = 1 - float64(v2.Wire.BytesSent)/float64(v1.Wire.BytesSent)
		}
		bytesPerWord := 0.0
		if v2.Stats.Words > 0 {
			bytesPerWord = float64(v2.Wire.BytesSent) / float64(v2.Stats.Words)
		}
		totV1 += v1.Wire.BytesSent
		totV2 += v2.Wire.BytesSent
		t.Rows = append(t.Rows, []string{
			entry.Name, itoa(prob.K), itoa(prob.N),
			i64(v2.Stats.Words), i64(v2.Wire.BytesSent), i64(v1.Wire.BytesSent),
			fmt.Sprintf("%.1f%%", 100*saving), f64(bytesPerWord),
			fmt.Sprintf("%v", equal),
		})
	}
	if totV1 > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"v2 ships %.1f%% fewer bytes than v1 across the registry (%d vs %d)",
			100*(1-float64(totV2)/float64(totV1)), totV2, totV1))
	}
	t.Notes = append(t.Notes,
		"bytes/word > 1 is the physical reality the model abstracts: varint headers, length prefixes and empty-batch frames",
		fmt.Sprintf("Stats bit-identical across wire formats: %v", allEqual))
	return t, nil
}
