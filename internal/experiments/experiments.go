// Package experiments implements the reproduction harness: one runner
// per experiment in DESIGN.md's index (F1, E1–E25), each regenerating
// the series behind a claim of the paper. cmd/kmbench prints the tables
// that EXPERIMENTS.md records; the root bench_test.go exposes each
// experiment as a testing.B benchmark.
//
// All experiments report *shapes* — scaling exponents, algorithm
// orderings, crossovers — because the paper's claims are asymptotic
// (Õ/Ω̃). Measured absolute rounds depend on the bandwidth B and hidden
// constants and are reported for transparency, not for comparison with
// the paper (which measures nothing).
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is one experiment's result, printable as an aligned text table.
// The json tags fix the schema of kmbench -json (the BENCH_*.json
// trajectory format), so keep them stable.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E1").
	ID string `json:"id"`
	// Title is a one-line description.
	Title string `json:"title"`
	// Claim cites the paper statement being reproduced.
	Claim string `json:"claim"`
	// Header and Rows hold the tabular data.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Notes carry derived observations (fitted exponents, pass/fail of
	// the shape check).
	Notes []string `json:"notes,omitempty"`
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Fmarkdown renders the table as a Markdown section (kmbench -md, the
// generator of EXPERIMENTS.md).
func (t *Table) Fmarkdown(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "*Claim:* %s\n\n", t.Claim)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// fitExponent least-squares fits y = c·x^a on log-log scale and returns a.
func fitExponent(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

func f64(v float64) string { return fmt.Sprintf("%.3g", v) }
func i64(v int64) string   { return fmt.Sprintf("%d", v) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func ratio(a, b int64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}

// Config scales the experiments.
type Config struct {
	// Quick shrinks sizes for use inside benchmarks and smoke tests.
	Quick bool
	// Seed perturbs all randomness.
	Seed uint64
	// TracePath, when non-empty, asks E21 to write a Chrome
	// trace-event JSON timeline of its instrumented TCP PageRank run
	// to this file (open in chrome://tracing or Perfetto). Other
	// experiments ignore it.
	TracePath string
	// CheckpointEvery runs E19's registry-driven substrate matrix with
	// per-superstep checkpointing armed at this cadence, so a
	// whole-suite "does checkpointing perturb any hash or Stat" audit
	// is one kmbench flag away. 0 leaves checkpointing off. E25 ignores
	// it: that experiment owns its cadence (it is the quantity under
	// measurement).
	CheckpointEvery int
	// CheckpointDir persists E19's in-process checkpoints to disk
	// (core.FileSink) instead of the in-memory ring, exercising the
	// file-backed sink under the same audit. Empty keeps checkpoints in
	// memory.
	CheckpointDir string
}

// Runner is one experiment entry point. Run returns an error instead
// of panicking on I/O or cluster failures, so harnesses (kmbench, the
// benchmarks) can name the failing experiment and keep their exit path
// clean rather than crashing the process.
type Runner struct {
	ID   string
	Name string
	Run  func(cfg Config) (Table, error)
}

// All returns every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"F1", "lower-bound graph (Figure 1)", F1LowerBoundGraph},
		{"E1", "PageRank rounds vs k (Thm 2+4)", E1PageRank},
		{"E2", "triangle rounds vs k (Thm 3+5)", E2Triangles},
		{"E3", "Lemma 4 PageRank separation", E3Separation},
		{"E4", "Lemma 5 revealed paths", E4RevealedPaths},
		{"E5", "congested clique (Cor 1)", E5CongestedClique},
		{"E6", "message complexity (Cor 2)", E6Messages},
		{"E7", "random routing (Lemma 13)", E7RandomRouting},
		{"E8", "distributed sorting (§1.3)", E8Sorting},
		{"E9", "induced edges (Prop 2)", E9InducedEdges},
		{"E10", "PageRank balance (Lemmas 12/14)", E10Balance},
		{"E11", "REP->RVP conversion (fn.3)", E11Conversion},
		{"E12", "open triads (§1.2)", E12Triads},
		{"E13", "sparse crossover (Thm 5)", E13Crossover},
		{"E14", "ablations (§1.3 mechanisms)", E14Ablations},
		{"E15", "GLBT gap audit", E15Gap},
		{"E16", "connectivity (§1.3 MST example)", E16Connectivity},
		{"E17", "information cost audit (Thm 1)", E17InfoCost},
		{"E18", "4-clique enumeration (§1.2 generalization)", E18Cliques4},
		{"E19", "substrate equivalence (registry × transports)", E19SubstrateMatrix},
		{"E20", "bytes-on-wire (model words vs physical bytes, v1 vs v2)", E20WireBytes},
		{"E21", "phase timings (compute/barrier/exchange share of wall)", E21PhaseTimings},
		{"E23", "partition-local setup (per-process heap, full vs sharded)", E23ShardedSetup},
		{"E24", "resident job service (standing mesh vs build-per-job)", E24JobService},
		{"E25", "checkpoint overhead & recovery latency (resume vs restart-from-zero)", E25Recovery},
	}
}
