// Command kmbench regenerates the paper-reproduction tables recorded in
// EXPERIMENTS.md: one table per experiment in DESIGN.md's index
// (F1, E1–E25), each exercising a claim of "On the Distributed
// Complexity of Large-Scale Graph Computations" (SPAA 2018).
//
// Usage:
//
//	kmbench                 # run every experiment at full size
//	kmbench -quick          # smaller sizes (seconds instead of minutes)
//	kmbench -run E2,E5      # only the listed experiment IDs
//	kmbench -seed 7         # perturb all randomness
//	kmbench -list           # list experiment IDs and exit
//	kmbench -json           # machine-readable output (BENCH_*.json trajectories)
//	kmbench -cpuprofile cpu.out -memprofile mem.out
//	                        # write pprof profiles of the run, so perf
//	                        # work can show where the time goes
//	kmbench -run E21 -trace e21.json
//	                        # phase-timing experiment, plus a Chrome
//	                        # trace-event timeline of its TCP PageRank
//	                        # run (open in chrome://tracing / Perfetto)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kmachine/internal/experiments"
)

// jsonReport is the machine-readable output shape of -json: enough
// metadata to reproduce the run plus every experiment table verbatim,
// so successive PRs can record BENCH_*.json trajectories and diff them.
type jsonReport struct {
	Mode      string      `json:"mode"`
	Seed      uint64      `json:"seed"`
	Timestamp string      `json:"timestamp"`
	Tables    []jsonTable `json:"tables"`
}

type jsonTable struct {
	experiments.Table
	Seconds float64 `json:"seconds"`
}

func main() {
	// All work happens in kmbenchMain so error exits unwind through the
	// profiling defers: os.Exit here, after it returns, never truncates
	// a started CPU profile or skips the heap snapshot.
	if err := kmbenchMain(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func kmbenchMain() (err error) {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := flag.Uint64("seed", 1, "seed for all randomness")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	mdOut := flag.Bool("md", false, "emit a Markdown document (the EXPERIMENTS.md generator)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline of E21's instrumented TCP PageRank run to this file (only meaningful when E21 runs)")
	ckEvery := flag.Int("checkpoint-every", 0, "run E19's substrate matrix with checkpointing every s supersteps — hashes and Stats must come out unchanged (E25 owns its own cadence and ignores this)")
	ckDir := flag.String("checkpoint-dir", "", "persist E19's in-process checkpoints to this directory (core.FileSink) instead of the in-memory ring; only meaningful with -checkpoint-every")
	flag.Parse()

	if *jsonOut && *mdOut {
		return fmt.Errorf("cannot combine -json and -md: pick one output format")
	}

	// Both profile files are created BEFORE the suite runs, so an
	// unwritable path fails in milliseconds instead of after minutes of
	// benchmarking; each is closed on every exit path by its defer.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close cpu profile: %w", cerr)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			return fmt.Errorf("create mem profile: %w", ferr)
		}
		// The snapshot itself is written on the way out so it covers the
		// whole run; a profile error surfaces in the exit code unless
		// the run already failed with its own.
		defer func() {
			runtime.GC() // settle live-heap numbers before the snapshot
			ferr := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil {
				ferr = fmt.Errorf("write mem profile: %w", ferr)
				if err == nil {
					err = ferr
				} else {
					fmt.Fprintln(os.Stderr, ferr)
				}
			}
		}()
	}

	all := experiments.All()
	if *list {
		for _, r := range all {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return nil
	}

	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, TracePath: *tracePath,
		CheckpointEvery: *ckEvery, CheckpointDir: *ckDir}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	switch {
	case *jsonOut:
	case *mdOut:
		fmt.Printf("# EXPERIMENTS — paper-reproduction tables\n\n")
		fmt.Printf("**Paper:** Pandurangan, Robinson, Scquizzato — \"On the Distributed Complexity of Large-Scale Graph Computations\", SPAA 2018 (arXiv:1602.08481)\n\n")
		fmt.Printf("Generated by `go run ./cmd/kmbench -md` (%s mode, seed %d); regenerate after\n", mode, *seed)
		fmt.Printf("algorithm or engine changes. One table per experiment in DESIGN.md's\n")
		fmt.Printf("index. All claims are asymptotic (Õ/Ω̃): the tables report *shapes* —\n")
		fmt.Printf("scaling exponents, algorithm orderings, crossovers — and the notes record\n")
		fmt.Printf("the fitted exponents and pass/fail of each shape check.\n\n")
	default:
		fmt.Printf("kmachine reproduction harness (%s mode, seed %d)\n", mode, *seed)
		fmt.Printf("paper: Pandurangan, Robinson, Scquizzato — SPAA 2018 (arXiv:1602.08481)\n\n")
	}

	report := jsonReport{
		Mode:      mode,
		Seed:      *seed,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	ran := 0
	for _, r := range all {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		table, rerr := r.Run(cfg)
		if rerr != nil {
			return fmt.Errorf("experiment %s (%s) failed: %w", r.ID, r.Name, rerr)
		}
		elapsed := time.Since(start)
		switch {
		case *jsonOut:
			report.Tables = append(report.Tables, jsonTable{Table: table, Seconds: elapsed.Seconds()})
		case *mdOut:
			table.Fmarkdown(os.Stdout)
		default:
			table.Fprint(os.Stdout)
			fmt.Printf("   (%s in %v)\n\n", r.ID, elapsed.Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched -run=%q; try -list", *run)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return fmt.Errorf("encode json: %w", err)
		}
	}
	return nil
}
