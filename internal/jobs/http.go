package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"kmachine/internal/algo"
)

// This file is the job service's HTTP/JSON control surface, mounted on
// kmnode's -debug-addr mux next to pprof and expvar:
//
//	POST /api/v1/jobs       submit a job        → 202 {id, state}
//	                        (body over 1 MiB    → 413;
//	                        unknown key or
//	                        trailing data       → 400)
//	GET  /api/v1/jobs       list jobs           → 200 [{...}]
//	GET  /api/v1/jobs/{id}  job status + result → 200 {..., result}
//	GET  /api/v1/status     scheduler gauges    → 200 {...}
//	POST /api/v1/drain      stop intake, wait   → 200 {drained}
//
// Results carry the canonical output hash (hex, the same quantity the
// cross-substrate golden suite compares) so a client can assert
// determinism over HTTP without touching the process.

// SubmitRequest is the POST /api/v1/jobs body. Zero values follow the
// algo.Problem conventions (EdgeP 0 → 10/N, Bandwidth 0 →
// DefaultBandwidth(N), ...); K may be 0 (the cluster's) or must match.
// A body carrying any other key is rejected.
type SubmitRequest struct {
	Algo      string  `json:"algo"`
	N         int     `json:"n"`
	EdgeP     float64 `json:"edge_p,omitempty"`
	K         int     `json:"k,omitempty"`
	Seed      uint64  `json:"seed"`
	Bandwidth int     `json:"bandwidth,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
	Top       int     `json:"top,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	// CheckpointEvery opts the job into per-superstep checkpointing and
	// machine-failure recovery: state is captured every
	// CheckpointEvery supersteps and a machine loss resumes the job
	// from the last complete checkpoint instead of failing it. 0 (the
	// default) keeps the fail-fast behaviour.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// JobJSON is the wire form of a Job snapshot.
type JobJSON struct {
	ID        uint64      `json:"id"`
	Algo      string      `json:"algo"`
	State     State       `json:"state"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	LatencyMS float64     `json:"latency_ms"`
	Error     string      `json:"error,omitempty"`
	Result    *ResultJSON `json:"result,omitempty"`
}

// ResultJSON is the wire form of a done job's Outcome.
type ResultJSON struct {
	Hash       string   `json:"hash"`
	Rounds     int64    `json:"rounds"`
	Supersteps int      `json:"supersteps"`
	Messages   int64    `json:"messages"`
	Words      int64    `json:"words"`
	Recoveries int      `json:"recoveries,omitempty"`
	Summary    []string `json:"summary,omitempty"`
	SetupMS    float64  `json:"setup_ms"`
	ExecMS     float64  `json:"exec_ms"`
}

// StatusJSON is the GET /api/v1/status body.
type StatusJSON struct {
	K          int    `json:"k"`
	Queued     int    `json:"queued"`
	Running    uint64 `json:"running_job,omitempty"`
	Done       int64  `json:"done"`
	Failed     int64  `json:"failed"`
	Canceled   int64  `json:"canceled"`
	Rebuilds   int64  `json:"mesh_rebuilds"`
	Recovered  int64  `json:"recoveries"`
	Evicted    int64  `json:"jobs_evicted"`
	Draining   bool   `json:"draining"`
	MeshHealth bool   `json:"mesh_healthy"`
}

// RegisterAPI mounts the job-service endpoints on mux (Go 1.22 method
// patterns, so mis-methods get 405 for free).
func (s *Scheduler) RegisterAPI(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/status", s.handleStatus)
	mux.HandleFunc("POST /api/v1/drain", s.handleDrain)
}

// maxSubmitBody bounds the POST /api/v1/jobs body. A SubmitRequest is
// a few hundred bytes; the bound only keeps a hostile or broken client
// from making the decoder buffer an unbounded stream.
const maxSubmitBody = 1 << 20

// decodeSubmit reads exactly one SubmitRequest object from body. Unknown
// keys and trailing data are errors: a misspelt option or one this
// server does not know must not silently run a different job.
func decodeSubmit(body io.Reader) (SubmitRequest, error) {
	var sr SubmitRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		return sr, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the JSON object")
		}
		return sr, err
	}
	return sr, nil
}

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBody)
	sr, err := decodeSubmit(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("bad submit body: %w", err))
		return
	}
	id, err := s.Submit(Request{
		Algo: sr.Algo,
		Prob: algo.Problem{
			N: sr.N, EdgeP: sr.EdgeP, K: sr.K, Seed: sr.Seed,
			Bandwidth: sr.Bandwidth, Eps: sr.Eps, Top: sr.Top,
			Checkpoint: algo.CheckpointSpec{Every: sr.CheckpointEvery},
		},
		Timeout: time.Duration(sr.TimeoutMS) * time.Millisecond,
	})
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrDraining) {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": StateQueued})
}

func (s *Scheduler) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = jobToJSON(j)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Scheduler) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return
	}
	j, ok := s.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, jobToJSON(j))
}

// handleCancel is DELETE /api/v1/jobs/{id}: cancel a queued or running
// job. 200 with the job snapshot on success, 404 for unknown (or
// evicted) IDs, 409 when the job already reached a terminal state.
func (s *Scheduler) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return
	}
	j, err := s.Cancel(id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
	case errors.Is(err, ErrJobFinished):
		httpError(w, http.StatusConflict, fmt.Errorf("job %d already %s", id, j.State))
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, jobToJSON(j))
	}
}

func (s *Scheduler) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	writeJSON(w, http.StatusOK, StatusJSON{
		K: st.K, Queued: st.Queued, Running: st.Running,
		Done: st.Done, Failed: st.Failed, Canceled: st.Canceled,
		Rebuilds: st.Rebuilds, Recovered: st.Recovered, Evicted: st.Evicted,
		Draining: st.Draining, MeshHealth: st.MeshHealth,
	})
}

func (s *Scheduler) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := s.Drain(r.Context()); err != nil {
		httpError(w, http.StatusGatewayTimeout, fmt.Errorf("drain interrupted: %w", err))
		return
	}
	st := s.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"drained": true, "done": st.Done, "failed": st.Failed,
	})
}

func jobToJSON(j Job) JobJSON {
	out := JobJSON{
		ID: j.ID, Algo: j.Algo, State: j.State, Submitted: j.Submitted,
		LatencyMS: float64(j.Latency(time.Now()).Microseconds()) / 1e3,
		Error:     j.Err,
	}
	if !j.Started.IsZero() {
		t := j.Started
		out.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		out.Finished = &t
	}
	if j.Outcome != nil {
		res := &ResultJSON{
			Hash:       fmt.Sprintf("%016x", j.Outcome.Hash),
			Recoveries: j.Recoveries,
			Summary:    j.Outcome.Summary,
			SetupMS:    float64(j.Outcome.SetupTime.Microseconds()) / 1e3,
			ExecMS:     float64(j.Outcome.ExecTime.Microseconds()) / 1e3,
		}
		if st := j.Outcome.Stats; st != nil {
			res.Rounds = st.Rounds
			res.Supersteps = st.Supersteps
			res.Messages = st.Messages
			res.Words = st.Words
		}
		out.Result = res
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
