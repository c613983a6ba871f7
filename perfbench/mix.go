package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/jobs"
	"kmachine/internal/obs"
	"kmachine/internal/transport"
)

const (
	// pollEvery is how often a client asks whether its job finished.
	pollEvery = 500 * time.Microsecond
	// retainJobs bounds the daemon's job records, as kmnode -retain-jobs
	// does; the two clients hold at most two live jobs, far below it.
	retainJobs = 64
	// ckptEvery is the checkpoint interval of every second pass.
	ckptEvery = 4
	// mixSpans bounds one traced job's spans (the longest mix job, a
	// short PageRank walk, records a few thousand).
	mixSpans = 1 << 16
)

// mixCycle is one pass over the five registry algorithms at small
// sizes, so the service path (HTTP, queue, job handshakes and the node
// report/verdict round) dominates each job.
var mixCycle = []struct {
	algo string
	n    int
	eps  float64
}{
	{"pagerank", 16, 0.95},
	{"conncomp", 64, 0},
	{"triangle", 64, 0},
	{"dsort", 64, 0},
	{"routing", 64, 0},
}

// mixKinds is the number of distinct jobs in the stream: every pass of
// the cycle, then every pass again with checkpointing on.
var mixKinds = 2 * len(mixCycle)

// mixJob is the i-th job of the stream.
func mixJob(i int, seed uint64) (string, algo.Problem) {
	c := mixCycle[i%len(mixCycle)]
	prob := algo.Problem{N: c.n, K: k, Seed: seed, Eps: c.eps}
	if (i/len(mixCycle))%2 == 1 {
		prob.Checkpoint.Every = ckptEvery
	}
	return c.algo, prob
}

var jobsMix = workload{name: "jobs-mix", refs: mixRefs, run: mixRun, trace: mixTrace}

func mixRefs(cfg Config) (Refs, error) {
	refs := Refs{}
	for i := range mixCycle {
		name, prob := mixJob(i, cfg.Seed)
		r, err := referenceOf(name, prob)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		refs[name] = r
	}
	return refs, nil
}

// service is the resident daemon's job path: a scheduler over a
// standing k-machine mesh with its HTTP API on a loopback listener.
type service struct {
	sched  *jobs.Scheduler
	srv    *http.Server
	base   string
	client *http.Client
	served chan error
}

func startService(clients int) (*service, error) {
	b, err := jobs.NewMeshBackend(k)
	if err != nil {
		return nil, err
	}
	sched := jobs.New(b, jobs.Options{MaxJobs: retainJobs})
	mux := http.NewServeMux()
	sched.RegisterAPI(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		return nil, err
	}
	s := &service{
		sched:  sched,
		srv:    &http.Server{Handler: mux},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *service) close() error {
	err := s.srv.Close()
	<-s.served
	s.client.CloseIdleConnections()
	if cerr := s.sched.Close(); err == nil {
		err = cerr
	}
	return err
}

// getJSON reads one JSON reply, draining the body so the connection
// is reused.
func getJSON(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

func (s *service) post(name string, prob algo.Problem) (uint64, error) {
	body, err := json.Marshal(jobs.SubmitRequest{Algo: name, N: prob.N, EdgeP: prob.EdgeP, Seed: prob.Seed,
		Eps: prob.Eps, CheckpointEvery: prob.Checkpoint.Every})
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Post(s.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var r struct {
		ID uint64 `json:"id"`
	}
	if err := getJSON(resp, http.StatusAccepted, &r); err != nil {
		return 0, fmt.Errorf("submit %s: %w", name, err)
	}
	return r.ID, nil
}

// wait polls job id until it is terminal.
func (s *service) wait(id uint64) (jobs.JobJSON, error) {
	for {
		resp, err := s.client.Get(s.base + "/api/v1/jobs/" + strconv.FormatUint(id, 10))
		if err != nil {
			return jobs.JobJSON{}, err
		}
		var j jobs.JobJSON
		if err := getJSON(resp, http.StatusOK, &j); err != nil {
			return j, fmt.Errorf("job %d: %w", id, err)
		}
		switch j.State {
		case jobs.StateDone:
			return j, nil
		case jobs.StateFailed, jobs.StateCanceled:
			return j, fmt.Errorf("job %d %s: %s", id, j.State, j.Error)
		}
		time.Sleep(pollEvery)
	}
}

func (s *service) rebuilds() (int64, error) {
	resp, err := s.client.Get(s.base + "/api/v1/status")
	if err != nil {
		return 0, err
	}
	var st jobs.StatusJSON
	if err := getJSON(resp, http.StatusOK, &st); err != nil {
		return 0, err
	}
	return st.Rebuilds, nil
}

// jobRun is one finished job as a client saw it.
type jobRun struct {
	kind   int
	traced bool
	ckpt   bool
	submit time.Duration // POST round trip; 0 when submitted in-process
	j      jobs.JobJSON
}

// runJob submits one job and waits for it. An untraced job goes
// through POST /api/v1/jobs; a traced one through Scheduler.Submit with
// tr as its recorder, since the HTTP surface carries none. Both are
// polled over GET and checked against the reference; the job is
// recorded in t and, when ok, returned.
func (s *service) runJob(name string, prob algo.Problem, refs Refs, tr *obs.Trace, t *tally) (jobRun, bool) {
	r := jobRun{traced: tr != nil, ckpt: prob.Checkpoint.Every > 0}
	t0 := time.Now()
	var id uint64
	var err error
	if tr != nil {
		tr.Reset()
		prob.Recorder = tr
		id, err = s.sched.Submit(jobs.Request{Algo: name, Prob: prob})
	} else {
		id, err = s.post(name, prob)
		r.submit = time.Since(t0)
	}
	if err == nil {
		r.j, err = s.wait(id)
	}
	latency := time.Since(t0)
	if err == nil {
		err = checkJob(refs, name, r.j)
	}
	if err != nil {
		t.op(fmt.Errorf("%s job: %w", name, err), 0, 0, 0)
		return r, false
	}
	res := r.j.Result
	t.op(nil, msDur(res.SetupMS), msDur(res.ExecMS), latency)
	return r, true
}

func checkJob(refs Refs, name string, j jobs.JobJSON) error {
	if j.Result == nil {
		return fmt.Errorf("job %d has no result", j.ID)
	}
	h, err := strconv.ParseUint(j.Result.Hash, 16, 64)
	if err != nil {
		return fmt.Errorf("job %d hash %q: %w", j.ID, j.Result.Hash, err)
	}
	return refs.check(name, h, j.Result.Rounds, j.Result.Summary)
}

func msDur(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

// addJob records the service layers of one untraced job.
func (s samples) addJob(r jobRun) {
	res := r.j.Result
	s.add("http.submit_ms", ms(r.submit))
	if r.j.Started != nil {
		s.add("jobs.queue_wait_ms", ms(r.j.Started.Sub(r.j.Submitted)))
	}
	s.add("jobs.setup_ms", res.SetupMS)
	if r.ckpt {
		s.add("jobs.exec_ms.ckpt", res.ExecMS)
	} else {
		s.add("jobs.exec_ms.plain", res.ExecMS)
	}
}

// addTraced records the layers a traced job's spans show.
func (s samples) addTraced(tr *obs.Trace, r jobRun) {
	spans := tr.Spans()
	s.addEngine(spans)
	s.addNode(spans)
	s.addSocket(tr.Counters(), transport.WireStats{}, r.j.Result.Supersteps, r.j.Result.Words)
}

// clients is the closed loop's width: no more client goroutines (and
// connections) than the box has cores.
func clients() int { return min(2, runtime.NumCPU()) }

// closedLoop runs the job stream with clients() closed-loop clients
// until d has passed; each client finishes its current job. With traced
// set, every second run of the ten job kinds is traced, and the loop
// runs each kind at least once plain and once traced. It returns the
// finished jobs, their tally, per-layer samples and the loop's wall
// time.
func (s *service) closedLoop(cfg Config, refs Refs, d time.Duration, traced bool) ([]jobRun, *tally, samples, time.Duration) {
	n := clients()
	minJobs := int64(1)
	if traced {
		minJobs = int64(2 * mixKinds)
	}
	var next atomic.Int64
	runs := make([][]jobRun, n)
	tallies := make([]tally, n)
	layer := make([]samples, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < n; c++ {
		layer[c] = samples{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *obs.Trace
			if traced {
				tr = obs.NewTrace(mixSpans, k)
			}
			for time.Since(t0) < d || next.Load() < minJobs {
				i := int(next.Add(1) - 1)
				name, prob := mixJob(i, cfg.Seed)
				var jt *obs.Trace
				if traced && (i/mixKinds)%2 == 1 {
					jt = tr
				}
				r, ok := s.runJob(name, prob, refs, jt, &tallies[c])
				if !ok {
					continue
				}
				r.kind = i % mixKinds
				if jt != nil {
					layer[c].addTraced(jt, r)
				}
				runs[c] = append(runs[c], r)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all []jobRun
	var t tally
	s0 := samples{}
	for c := 0; c < n; c++ {
		all = append(all, runs[c]...)
		t.merge(&tallies[c])
		s0.merge(layer[c])
	}
	return all, &t, s0, elapsed
}

func (s samples) merge(o samples) {
	for name, xs := range o {
		s[name] = append(s[name], xs...)
	}
}

// warmUp runs one whole mix of the stream through a single client, so
// every algorithm's first-use cost falls outside the measured window.
func (s *service) warmUp(cfg Config, refs Refs, t *tally) {
	for i := 0; i < mixKinds; i++ {
		name, prob := mixJob(i, cfg.Seed)
		s.runJob(name, prob, refs, nil, t)
	}
}

// countRebuilds adds every mesh rebuild to the failures: a healthy
// stream never poisons the mesh.
func (s *service) countRebuilds(t *tally) int64 {
	n, err := s.rebuilds()
	t.check(err)
	for i := int64(0); i < n; i++ {
		t.check(fmt.Errorf("mesh rebuild %d", i+1))
	}
	return n
}

func mixRun(cfg Config, refs Refs) Result {
	reps := 21
	if cfg.Quick {
		reps = 2
	}
	// A single mesh build swings by a factor of two; the median of many
	// is steady.
	var setup []float64
	var svc *service
	var warm tally
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		s, err := startService(clients())
		if err != nil {
			warm.check(err)
			continue
		}
		setup = append(setup, time.Since(t0).Seconds())
		if svc != nil {
			warm.check(svc.close())
			// Collect the closed mesh now, so the set-up loop does not
			// set the process's peak memory.
			runtime.GC()
		}
		svc = s
	}
	if svc == nil {
		m := metricsOf(endToEnd, nil, &warm)
		return warm.result(m)
	}
	svc.warmUp(cfg, refs, &warm)
	cpu0 := cpuSeconds()
	_, timed, _, elapsed := svc.closedLoop(cfg, refs, cfg.Seconds, false)
	cpu := cpuSeconds() - cpu0
	m := timed.endToEndMetrics(setup, elapsed, cpu)
	svc.countRebuilds(timed)
	warm.check(svc.close())
	warm.merge(timed)
	return warm.result(m)
}

func mixTrace(cfg Config, refs Refs) Result {
	var all tally
	svc, err := startService(clients())
	if err != nil {
		all.check(err)
		m := metricsOf(perLayer, nil, &all)
		return all.result(m)
	}
	svc.warmUp(cfg, refs, &all)
	runs, t, s, _ := svc.closedLoop(cfg, refs, cfg.Seconds, true)
	all.merge(t)

	// The tracing overhead compares each kind of job with itself.
	exec := make([][2][]float64, mixKinds)
	for _, r := range runs {
		if !r.traced {
			s.addJob(r)
			s.add("core.wall_us_per_round", r.j.Result.ExecMS*1e3/float64(r.j.Result.Rounds))
		}
		side := 0
		if r.traced {
			side = 1
		}
		exec[r.kind][side] = append(exec[r.kind][side], r.j.Result.ExecMS)
	}
	var ratios []float64
	for _, e := range exec {
		if len(e[0]) > 0 && len(e[1]) > 0 {
			ratios = append(ratios, median(e[1])/median(e[0]))
		}
	}
	s.add("obs.trace_overhead_frac", median(ratios)-1)
	s.add("jobs.rebuilds", float64(svc.countRebuilds(&all)))
	all.check(svc.close())

	// The stream's graphs are the n=64 G(n,10/n) of its graph jobs.
	_, prob := mixJob(2, cfg.Seed)
	prob.EdgeP = 10 / float64(prob.N)
	sb, err := shardBuildSeconds(prob, 50)
	all.check(err)
	s.add("gen.shard_build_s", sb)
	all.check(probeLayers(cfg, s))
	m := metricsOf(perLayer, s.medians(), &all)
	return all.result(m)
}

// serviceCompanion measures the service layers on a cluster workload's
// own problem: one plain and one checkpointed job over HTTP, and one
// traced job through Scheduler.Submit. The HTTP surface has no sharded
// flag, so HTTP jobs build their input materialised.
func serviceCompanion(name string, prob algo.Problem, refs Refs, s samples, t *tally) {
	svc, err := startService(1)
	if err != nil {
		t.check(err)
		return
	}
	ck := prob
	ck.Checkpoint.Every = ckptEvery
	for _, p := range []algo.Problem{prob, ck} {
		if r, ok := svc.runJob(name, p, refs, nil, t); ok {
			s.addJob(r)
		}
	}
	tr := obs.NewTrace(traceSpans, k)
	if _, ok := svc.runJob(name, prob, refs, tr, t); ok {
		s.addNode(tr.Spans())
	}
	s.add("jobs.rebuilds", float64(svc.countRebuilds(t)))
	t.check(svc.close())
}
