// Out-of-core edge-list ingest: stream a text edge list from disk
// straight into per-machine CSR shards, so a real dataset can be run
// without any process ever materialising the full graph.
//
// File format: one edge per line, "u v" with whitespace separation;
// blank lines and lines starting with '#' are skipped. Vertex IDs are
// 0-based and must lie in [0, n); n is not stored in the file — it comes
// from the problem (kmnode -n). For undirected graphs each line is the
// edge {u,v}; for directed graphs it is the arc u->v.
package gen

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// ScanEdgeList streams the edge list from r, calling emit for every edge
// line. It validates syntax and vertex range and reports errors with
// line numbers.
func ScanEdgeList(r io.Reader, n int, emit func(u, v int32)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		u, v, skip, err := parseEdgeLine(sc.Bytes(), n)
		if err != nil {
			return fmt.Errorf("gen: edge list line %d: %w", lineNo, err)
		}
		if skip {
			continue
		}
		emit(u, v)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("gen: edge list read: %w", err)
	}
	return nil
}

// parseEdgeLine parses "u v" from one line without allocating. skip is
// true for blank and comment lines.
func parseEdgeLine(line []byte, n int) (u, v int32, skip bool, err error) {
	i := 0
	skipWS := func() {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
	}
	number := func() (int64, error) {
		start := i
		var x int64
		for i < len(line) && line[i] >= '0' && line[i] <= '9' {
			x = x*10 + int64(line[i]-'0')
			if x > int64(1)<<40 {
				return 0, fmt.Errorf("vertex ID out of range")
			}
			i++
		}
		if i == start {
			return 0, fmt.Errorf("expected vertex ID")
		}
		if x >= int64(n) {
			return 0, fmt.Errorf("vertex %d out of range [0,%d)", x, n)
		}
		return x, nil
	}
	skipWS()
	if i == len(line) || line[i] == '#' {
		return 0, 0, true, nil
	}
	uu, err := number()
	if err != nil {
		return 0, 0, false, err
	}
	skipWS()
	vv, err := number()
	if err != nil {
		return 0, 0, false, err
	}
	skipWS()
	if i != len(line) && line[i] != '#' {
		return 0, 0, false, fmt.Errorf("trailing garbage after edge")
	}
	return int32(uu), int32(vv), false, nil
}

// ReadEdgeListGraph fully materialises the edge list at path — the
// baseline against which IngestEdgeList's sharded CSRs are compared.
func ReadEdgeListGraph(path string, n int, directed bool) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := graph.NewBuilder(n, directed)
	if err := ScanEdgeList(f, n, func(u, v int32) { b.AddEdge(int(u), int(v)) }); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// EdgeListInput returns the ShardedInput of the edge list at path: each
// replay reads the file once, so Views ingests all k shards from one
// read and MachineView one shard from one read — O(file) I/O,
// O((n+m)/k) retained memory per machine, no global graph object. The
// file may be the full edge list or a per-machine split (cliutil's
// splitter): any superset of a machine's incident edges ingests to the
// identical shard, because the Router drops arcs of machines it does
// not host.
func EdgeListInput(path string, ps partition.Spec, directed bool) *partition.ShardedInput {
	return &partition.ShardedInput{
		Spec:     ps,
		Directed: directed,
		Stream: func(emit func(u, v int32)) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			return ScanEdgeList(f, ps.N, emit)
		},
	}
}

// IngestEdgeList streams the edge list at path into machine m's CSR
// shard alone.
func IngestEdgeList(path string, ps partition.Spec, directed bool, m core.MachineID) (*partition.LocalView, error) {
	shards, err := EdgeListInput(path, ps, directed).Shards(m)
	if err != nil {
		return nil, err
	}
	return shards[m], nil
}

// WriteEdgeList writes g in the ingest file format: each undirected edge
// once as "u v" with u < v, each directed arc once.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.Edges(func(u, v int32) bool {
		_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
