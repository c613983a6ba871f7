package node

import (
	"fmt"
	"sync"

	"kmachine/internal/core"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// This file is the node runtime's multi-job mode: where Run/RunLocal
// build a mesh, execute one algorithm, and tear everything down, a
// LocalMesh outlives jobs — RunJobLocal attaches fresh typed endpoints
// to the standing fabric for each job, frames every data batch with the
// job ID, runs the ordinary superstep loop, and detaches with the
// connections intact. No handshake brackets a job: the job header on
// every data frame rejects a stray frame from another job, and the
// final exchange, in which every node reads every peer's last frame,
// leaves every connection drained before the detach. Per-job isolation
// falls out of the structure: each job gets fresh endpoints (wire
// counters, scratch, inboxes), fresh per-node Stats, and whatever
// Recorder the caller put in its Config.

// LocalMesh is the standing k-machine socket fabric of a resident
// in-process cluster: k listeners on loopback, every ordered pair
// connected, no job running. It is built once (NewLocalMesh), executes
// any number of sequential jobs (RunJobLocal), and is torn down on
// Close. Any job failure poisons it — Healthy reports whether the next
// job may run or the owner must rebuild.
type LocalMesh struct {
	k      int
	meshes []*tcp.Mesh
}

// NewLocalMesh builds the standing loopback fabric for a k-machine
// resident cluster.
func NewLocalMesh(k int) (*LocalMesh, error) {
	if k < 2 {
		return nil, fmt.Errorf("node: need k >= 2 machines, got %d", k)
	}
	ms, err := tcp.NewLoopbackSocketMesh(k)
	if err != nil {
		return nil, err
	}
	return &LocalMesh{k: k, meshes: ms}, nil
}

// K returns the cluster size.
func (lm *LocalMesh) K() int { return lm.k }

// Healthy reports whether every machine's fabric is still usable: false
// after any job failure (or Sever), meaning the owner must rebuild the
// mesh before the next job.
func (lm *LocalMesh) Healthy() bool {
	for _, m := range lm.meshes {
		if !m.Healthy() {
			return false
		}
	}
	return true
}

// Sever forcibly closes machine i's fabric — listener and every
// connection — simulating that machine dying mid-job. The in-flight
// job fails with attribution; the mesh is poisoned. Fault injection
// for chaos tests, mirroring tcp.Transport.SeverMachine.
func (lm *LocalMesh) Sever(i int) error {
	if i < 0 || i >= lm.k {
		return fmt.Errorf("node: cannot sever machine %d of %d", i, lm.k)
	}
	return lm.meshes[i].Close()
}

// Close tears down every machine's fabric.
func (lm *LocalMesh) Close() error {
	var first error
	for _, m := range lm.meshes {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RunJobLocal executes one job on the standing mesh: typed endpoints
// attach for job `job` (all data frames carry its ID), the ordinary
// superstep loop runs until the reports say stop, and the endpoints
// detach. Every node stops after reading every peer's final frame, so
// the connections are quiescent and safe to hand to the next job's
// endpoints.
// cfg is a template exactly like RunLocal's: ID, ListenAddr, and Peers
// are ignored; K must equal the mesh's. On any error the mesh is
// poisoned (Healthy()==false) and must be rebuilt.
func RunJobLocal[M any](lm *LocalMesh, cfg Config, job uint64, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, error) {
	if cfg.K != lm.k {
		return nil, fmt.Errorf("node: job config wants k=%d on a k=%d mesh", cfg.K, lm.k)
	}
	if job == 0 {
		// Zero is the "no job" sentinel in MachineError attribution.
		return nil, fmt.Errorf("node: job IDs start at 1")
	}
	k := lm.k
	// Recovery needs the caller (the job scheduler) to own the sink, so
	// it survives the mesh rebuild between attempts.
	ck, err := openCheckpoints(cfg.Checkpoint, k)
	if err != nil {
		return nil, err
	}
	eps := make([]*tcp.Endpoint[M], k)
	for i := 0; i < k; i++ {
		e, err := tcp.Attach[M](lm.meshes[i], codec, job)
		if err != nil {
			for _, prev := range eps[:i] {
				prev.Close()
			}
			return nil, err
		}
		if cfg.Recorder != nil {
			e.SetRecorder(cfg.Recorder)
		}
		eps[i] = e
	}
	// Factory calls stay sequential, matching core.NewCluster's contract.
	machines := make([]core.Machine[M], k)
	for i := 0; i < k; i++ {
		machines[i] = factory(core.MachineID(i))
	}
	stats := make([]*core.Stats, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mcfg := cfg
			mcfg.ID = i
			mcfg.ListenAddr, mcfg.Peers = "", nil
			if err := mcfg.validate(); err == nil {
				stats[i], errs[i] = runLoop(mcfg, eps[i], machines[i], codec, ck)
			} else {
				errs[i] = err
			}
			if errs[i] != nil {
				// Same teardown rule as RunLocal: a node that bails must
				// close its endpoint — and with it the shared fabric — so
				// peers parked on its connections unblock immediately.
				eps[i].Close()
			} else {
				eps[i].Detach()
			}
		}(i)
	}
	wg.Wait()
	err = firstErr(errs)
	if err != nil {
		// A failed job may leave some machines cleanly detached and
		// others mid-teardown; poison the whole fabric so the owner
		// rebuilds rather than running the next job on a half-dead
		// mesh.
		for _, e := range eps {
			e.Close()
		}
	}
	return stats[0], err
}
