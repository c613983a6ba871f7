// Command perfbench is the repository's benchmark: three workloads at
// k=8 that each stress a different layer of the k-machine system, with
// every output checked against a reference computed on another path.
// run.py builds it and drives it; see README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//	perfbench -mode ref -workload W -seed S
//	    prints the reference outputs of W as JSON (materialised input on
//	    the loopback), computed in its own process so the measuring
//	    process's peak memory is the workload's alone;
//	perfbench -mode run -workload W -seed S -seconds N -trace 0|1 -ref JSON
//	    measures W for N seconds and prints the result as the last line.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	_ "kmachine/internal/algo/all"
)

// k is the repository's standard operating point.
const k = 8

// Config is what one invocation measures.
type Config struct {
	Seed    uint64
	Seconds time.Duration
	// Quick shrinks inputs and repetition counts for the package tests.
	Quick bool
	// OutDir receives the Chrome trace of a traced pagerank-tcp run; ""
	// writes none.
	OutDir string
}

// Ref is a reference output: the hash and round count every op of the
// same problem must reproduce, and for triangle problems the count
// graph.CountTriangles gives (-1 otherwise).
type Ref struct {
	Hash      uint64 `json:"hash"`
	Rounds    int64  `json:"rounds"`
	Triangles int64  `json:"triangles"`
}

// Refs keys references by algorithm name.
type Refs map[string]Ref

// workload is one benchmark workload.
type workload struct {
	name string
	// refs computes the reference outputs on a path the measured ops
	// do not take.
	refs func(Config) (Refs, error)
	// run measures with tracing off and returns the end-to-end metrics.
	run func(Config, Refs) Result
	// trace measures with tracing on and returns the per-layer metrics.
	trace func(Config, Refs) Result
}

var workloads = []workload{pagerankTCP, triangleSharded, jobsMix}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	mode := flag.String("mode", "run", "ref: print reference outputs; run: measure")
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 measures the per-layer metrics with tracing on")
	refJSON := flag.String("ref", "", "reference outputs from -mode ref")
	out := flag.String("out", "", "directory for the Chrome trace of a traced pagerank-tcp run")
	commit := flag.String("commit", "unknown", "source revision, for the fingerprint")
	source := flag.String("source", "unknown", "source tree digest, for the fingerprint")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		logf("unknown workload %q", *name)
		os.Exit(2)
	}
	cfg := Config{Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, OutDir: *out}
	switch *mode {
	case "ref":
		refs, err := w.refs(cfg)
		if err != nil {
			logf("reference for %s: %v", w.name, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(refs); err != nil {
			os.Exit(1)
		}
	case "run":
		var refs Refs
		if err := json.Unmarshal([]byte(*refJSON), &refs); err != nil || len(refs) == 0 {
			logf("need -ref with the reference outputs of %s", w.name)
			os.Exit(2)
		}
		printFingerprint(*commit, *source)
		var res Result
		if *traced == 1 {
			res = w.trace(cfg, refs)
		} else {
			res = w.run(cfg, refs)
		}
		printResult(res)
	default:
		logf("unknown mode %q", *mode)
		os.Exit(2)
	}
}

// printFingerprint records the box the numbers come from: numbers from
// different boxes are not comparable.
func printFingerprint(commit, source string) {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"source":     source,
	}
	b, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// printResult prints every metric on its own line for people, then the
// result object as the last line.
func printResult(res Result) {
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("ops attempted=%d failed=%d failed_frac=%.4f\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Printf("%-30s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// chromePath is where a traced pagerank-tcp run writes its timeline.
func chromePath(cfg Config) string {
	if cfg.OutDir == "" {
		return ""
	}
	return filepath.Join(cfg.OutDir, "pagerank-tcp.trace.json")
}
