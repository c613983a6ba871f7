package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/transport"
)

// TestHTTPAPI drives the full control surface over real HTTP: submit
// two different algorithms, poll to completion, assert the result
// hashes against fresh single-run references, check status and list,
// then drain and verify intake is closed.
func TestHTTPAPI(t *testing.T) {
	const k = 3
	b, err := NewBuildBackend(k, transport.InMem)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()
	mux := http.NewServeMux()
	s.RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, out.Bytes()
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, out.Bytes()
	}

	// Submit two different algorithms.
	subs := []SubmitRequest{
		{Algo: "pagerank", N: 120, Seed: 7},
		{Algo: "conncomp", N: 120, Seed: 7},
	}
	ids := make([]uint64, len(subs))
	for i, sr := range subs {
		resp, body := post("/api/v1/jobs", sr)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", sr.Algo, resp.StatusCode, body)
		}
		var acc struct {
			ID    uint64 `json:"id"`
			State State  `json:"state"`
		}
		if err := json.Unmarshal(body, &acc); err != nil {
			t.Fatal(err)
		}
		if acc.ID == 0 || acc.State != StateQueued {
			t.Fatalf("submit %s returned %s", sr.Algo, body)
		}
		ids[i] = acc.ID
	}

	// Poll each to completion and check the result hash against a fresh
	// single-run reference.
	for i, id := range ids {
		var j JobJSON
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, body := get(fmt.Sprintf("/api/v1/jobs/%d", id))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %d %s", id, resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, &j); err != nil {
				t.Fatal(err)
			}
			if j.State == StateDone || j.State == StateFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in %q", id, j.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if j.State != StateDone {
			t.Fatalf("job %d failed: %s", id, j.Error)
		}
		if j.Result == nil || j.Result.Hash == "" {
			t.Fatalf("done job %d has no result hash", id)
		}
		entry, _ := algo.Lookup(subs[i].Algo)
		ref, err := entry.Run(algo.Problem{N: subs[i].N, K: k, Seed: subs[i].Seed}, transport.InMem)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%016x", ref.Hash); j.Result.Hash != want {
			t.Errorf("job %d hash %s over HTTP, reference %s", id, j.Result.Hash, want)
		}
		if j.Result.Rounds != ref.Stats.Rounds {
			t.Errorf("job %d rounds %d over HTTP, reference %d", id, j.Result.Rounds, ref.Stats.Rounds)
		}
	}

	// List and scheduler status.
	resp, body := get("/api/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []JobJSON
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(ids) {
		t.Fatalf("list has %d jobs, want %d", len(list), len(ids))
	}
	resp, body = get("/api/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st StatusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.K != k || st.Done != int64(len(ids)) || st.Draining {
		t.Errorf("scheduler status %s", body)
	}

	// Error paths: bad algo 400, oversized body 413, unknown job 404,
	// bad id 400. The oversized body would be a valid submit but for its
	// size, so only the body bound can reject it.
	if resp, _ := post("/api/v1/jobs", SubmitRequest{Algo: "no-such", N: 10}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad algo: %d, want 400", resp.StatusCode)
	}
	big := map[string]any{"algo": "pagerank", "n": 10, "seed": 1, "pad": strings.Repeat("x", maxSubmitBody)}
	if resp, _ := post("/api/v1/jobs", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", resp.StatusCode)
	}
	// Strict bodies: an option this server does not know (the deleted
	// streaming schedule), a misspelt key, trailing data after the
	// object, and out-of-range values must all be refused, never run
	// as a silently different job.
	for _, body := range []string{
		`{"algo":"pagerank","n":10,"streaming":true}`,
		`{"algo":"pagerank","n":10,"checkpoint_evry":5}`,
		`{"algo":"pagerank","n":10}{"algo":"pagerank","n":10}`,
		`{"algo":"pagerank","n":10,"timeout_ms":-5}`,
		`{"algo":"pagerank","n":10,"checkpoint_every":-1}`,
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: %d, want 400", body, resp.StatusCode)
		}
	}
	if resp, _ := get("/api/v1/jobs/9999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/api/v1/jobs/zzz"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: %d, want 400", resp.StatusCode)
	}

	// Drain, then intake must answer 503.
	resp, body = post("/api/v1/drain", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	if resp, _ := post("/api/v1/jobs", SubmitRequest{Algo: "pagerank", N: 100, Seed: 1}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPCancel drives DELETE /api/v1/jobs/{id} end to end: a queued
// job cancels to 200 + canceled state, an unknown ID answers 404, a
// finished job answers 409, and a malformed ID answers 400.
func TestHTTPCancel(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()
	mux := http.NewServeMux()
	s.RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	del := func(path string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, out.Bytes()
	}

	// A slow first job keeps the second one queued for the cancel.
	stall := func() { time.Sleep(100 * time.Millisecond) }
	chaosHook.Store(&stall)
	defer chaosHook.Store(nil)
	id1, err := s.Submit(Request{Algo: "testjob-chaos", Prob: algo.Problem{N: 60, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 120, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := del(fmt.Sprintf("/api/v1/jobs/%d", id2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued job: %d %s, want 200", resp.StatusCode, body)
	}
	var j JobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.State != StateCanceled {
		t.Errorf("canceled job state %q over HTTP, want canceled", j.State)
	}

	if resp, _ := del("/api/v1/jobs/9999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := del("/api/v1/jobs/zzz"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cancel bad id: %d, want 400", resp.StatusCode)
	}

	if j := waitState(t, s, id1); j.State != StateDone {
		t.Fatalf("job %d ended %q: %s", id1, j.State, j.Err)
	}
	if resp, body := del(fmt.Sprintf("/api/v1/jobs/%d", id1)); resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job: %d %s, want 409", resp.StatusCode, body)
	}
}

// TestHTTPCheckpointedSubmit: the checkpoint_every knob round-trips
// through the JSON surface — an opted-in job severed mid-run completes
// with recoveries reported in its result.
func TestHTTPCheckpointedSubmit(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()
	mux := http.NewServeMux()
	s.RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var kill func()
	kill = func() {
		chaosHook.Store(nil)
		b.Sever(2)
	}
	chaosHook.Store(&kill)
	defer chaosHook.Store(nil)

	buf, _ := json.Marshal(SubmitRequest{Algo: "testjob-chaos", N: 60, Seed: 5, CheckpointEvery: 1})
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	j := waitState(t, s, acc.ID)
	if j.State != StateDone {
		t.Fatalf("severed checkpointed job ended %q: %s", j.State, j.Err)
	}
	var jj JobJSON
	gresp, err := http.Get(srv.URL + fmt.Sprintf("/api/v1/jobs/%d", acc.ID))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(gresp.Body).Decode(&jj); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if jj.Result == nil || jj.Result.Recoveries < 1 {
		t.Errorf("result over HTTP reports no recoveries: %+v", jj.Result)
	}
}
