package gen

import (
	"bytes"
	"os"
	"testing"

	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// FuzzScanEdgeList feeds arbitrary bytes to the edge-list ingest. It
// must never panic and never emit an endpoint outside [0, n); whenever
// it accepts the input, the k shards built from one pass, each machine's
// shard built alone, and the materialised graph must agree row for row.
// Longer local runs: go test -fuzz FuzzScanEdgeList ./internal/gen
func FuzzScanEdgeList(f *testing.F) {
	const n, k = 300, 4
	sample, err := os.ReadFile("../../testdata/sample_edges.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add(sample[:len(sample)/3]) // cut mid-file, likely mid-line
	for _, seed := range []string{
		"",
		"0 1",
		"5 7\n7 5\n5 7\n9 9\n",
		"# only a comment\n\n\t\r\n",
		"299 0 # last vertex\n",
		"300 1\n",
		"1 99999999999999999999\n",
		"4294967297 2\n",
		"12\n",
		"3 4 5\n",
		"-1 2\n",
		"1 2\x00\xff\n",
		"\xef\xbb\xbf1 2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, directed := range []bool{false, true} {
			b := graph.NewBuilder(n, directed)
			err := ScanEdgeList(bytes.NewReader(data), n, func(u, v int32) {
				if u < 0 || u >= n || v < 0 || v >= n {
					t.Fatalf("emitted edge (%d,%d) outside [0,%d)", u, v, n)
				}
				b.AddEdge(int(u), int(v))
			})
			if err != nil {
				return
			}
			in := &partition.ShardedInput{
				Spec:     partition.Spec{N: n, K: k, Seed: 3},
				Directed: directed,
				Stream: func(emit func(u, v int32)) error {
					return ScanEdgeList(bytes.NewReader(data), n, emit)
				},
			}
			checkThreeWay(t, "fuzzed edge list", in, b.Build())
		}
	})
}
