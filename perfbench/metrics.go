package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// Metric is one named measurement as printed in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output: the contract's four
// keys and nothing else.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names (perfbench_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off. An op is one run on the
// cluster workloads and one job on jobs-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},             // median input-build time per op; mesh+scheduler+listener build on jobs-mix
	{"exec_s", "s"},              // median execution time per op (Outcome.ExecTime)
	{"jobs_per_s", "1/s"},        // sustained completed ops per second
	{"job_latency_p50_ms", "ms"}, // submit-to-result latency
	{"job_latency_p95_ms", "ms"},
	{"cpu_s_per_op", "s"}, // process user+sys CPU over the timed region, per op
	{"max_rss_mb", "MB"},  // peak resident memory of the process
}

// perLayer come from the traced run. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"core.compute_s", "s"},
	{"core.barrier_s", "s"},
	{"core.exchange_s", "s"},
	{"core.wall_us_per_round", "us"},
	{"core.noop_superstep_us.inmem", "us"},
	{"core.noop_superstep_us.tcp", "us"},
	{"tcp.frame_write_s", "s"},
	{"tcp.frame_read_s", "s"},
	{"tcp.frames_per_superstep", "count"},
	{"wire.decode_s", "s"},
	{"wire.bytes_per_word", "B/word"},
	{"gen.shard_build_s", "s"},
	{"node.verdict_round_ms", "ms"},
	{"node.exchange_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.exec_ms.plain", "ms"},
	{"jobs.exec_ms.ckpt", "ms"},
	{"jobs.setup_ms", "ms"},
	{"http.submit_ms", "ms"},
	{"jobs.rebuilds", "count"},
	{"obs.trace_overhead_frac", "frac"},
	{"obs.span_coverage", "frac"},
}

// samples collects named per-op observations; a metric's value is the
// median of its samples.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// tally counts attempted and failed ops and keeps the per-op timings
// the end-to-end metrics are computed from.
type tally struct {
	attempted, failed int
	setupS            []float64
	execS             []float64
	latencyMS         []float64
}

// op records one op. err is a failure to run or a wrong output; a
// failed op contributes no timings.
func (t *tally) op(err error, setup, exec, latency time.Duration) {
	t.attempted++
	if err != nil {
		t.failed++
		logf("op failed: %v", err)
		return
	}
	t.setupS = append(t.setupS, setup.Seconds())
	t.execS = append(t.execS, exec.Seconds())
	t.latencyMS = append(t.latencyMS, ms(latency))
}

// check records the outcome of a correctness check that is not itself
// a timed op (a reference comparison on a companion run).
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		logf("check failed: %v", err)
	}
}

// result reports t's counts with the given metrics. Build the metrics
// first: metricsOf counts what it could not measure into t.
func (t *tally) result(m map[string]Metric) Result {
	return Result{Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.setupS = append(t.setupS, o.setupS...)
	t.execS = append(t.execS, o.execS...)
	t.latencyMS = append(t.latencyMS, o.latencyMS...)
}

// endToEndMetrics builds the untraced metric set. setupS overrides the
// per-op setup samples when the workload's set-up is not per op.
func (t *tally) endToEndMetrics(setupS []float64, elapsed time.Duration, cpuS float64) map[string]Metric {
	if setupS == nil {
		setupS = t.setupS
	}
	ok := float64(t.attempted - t.failed)
	v := map[string]float64{
		"setup_s":            median(setupS),
		"exec_s":             median(t.execS),
		"jobs_per_s":         ok / elapsed.Seconds(),
		"job_latency_p50_ms": quantile(t.latencyMS, 0.50),
		"job_latency_p95_ms": quantile(t.latencyMS, 0.95),
		"cpu_s_per_op":       cpuS / math.Max(ok, 1),
		"max_rss_mb":         maxRSSMB(),
	}
	return metricsOf(endToEnd, v, t)
}

// metricsOf attaches units to values. A value that could not be
// measured (no samples, or not finite) reads 0 and counts as a failed
// check in t.
func metricsOf(defs []metricDef, v map[string]float64, t *tally) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			t.check(fmt.Errorf("metric %s not measured", d.name))
			x = 0
		}
		out[d.name] = Metric{Value: x, Unit: d.unit}
	}
	return out
}

func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, xs := range s {
		out[k] = median(xs)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics around
// rank q·(n-1). NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := q * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		logf("getrusage: %v", err)
	}
	return ru
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
