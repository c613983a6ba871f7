// Package tcp runs the k-machine cluster over real sockets: every
// machine owns a net.Listener and dials every peer, giving the full
// point-to-point mesh of the model (§1.1) as k·(k-1) actual TCP
// connections. Envelopes cross machine boundaries as length-prefixed
// binary frames (transport/wire), one batch frame per (sender,
// receiver) pair per superstep — empty batches included, which is how a
// receiver knows a superstep's input is complete. That is all the
// superstep synchronisation the mesh needs; no barrier traffic crosses
// it.
//
// The per-superstep exchange is a persistent parallel pipeline: every
// data connection is owned by a long-lived worker goroutine — one
// writer per outgoing peer, one reader per incoming peer — spawned once
// when the mesh connects and parked on a signal channel between
// supersteps. A superstep becomes signal → encode-in-parallel (each
// writer serialises its own peer's batch into its own recycled buffer)
// → decode-in-parallel (each reader decodes into its own recycled
// envelope scratch) → merge, with no goroutine spawned and no
// synchronisation state allocated on the steady-state path. Workers
// exit when the endpoint closes; they never leak across supersteps.
//
// A data frame may carry a header section ahead of its batch
// (wire.AppendReport): Exchange takes the caller's header bytes, ships
// them on every frame of the superstep, and hands back the k headers it
// received in sender order. The package never interprets them; the
// standalone runtime (transport/node) uses them to carry each machine's
// per-superstep report, so no connection beyond the k·(k-1) data links
// exists. The cluster Transport passes none, and its frames carry no
// section.
//
// The package knows nothing about rounds or words: cost accounting
// stays in core, which is what keeps Stats bit-identical between this
// transport and the in-memory loopback. What the package does account
// is the physical layer: every endpoint counts the actual frame bytes
// it ships and receives (transport.WireStats), the quantity the paper's
// word-based cost model abstracts over.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kmachine/internal/obs"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// helloData is the connection-type byte carried in the HELLO frame
// that opens every dialed connection.
const helloData = byte(0)

// DefaultDialTimeout bounds mesh construction: peers of a standalone
// node may start seconds apart.
const DefaultDialTimeout = 10 * time.Second

type dataConn struct {
	c net.Conn
	w *wbuf
	r *rbuf
	// wmu serialises frame writes: the owning writer worker and a
	// failing peer's blame broadcast may write concurrently.
	wmu sync.Mutex
}

// wbuf/rbuf are tiny aliases to keep struct fields readable.
type wbuf = bufWriter
type rbuf = bufReader

// pipeJob is one superstep's marching order for a parked pipeline
// worker: which superstep to encode/decode and the I/O deadline to
// install first. It is passed by value over a buffered channel, so
// signalling a worker allocates nothing.
type pipeJob struct {
	step int
	dl   time.Time
}

// Endpoint is one machine's typed socket stack over a Mesh: the
// listener and connections live in the embedded Mesh (promoted fields),
// while everything typed in M — codec, encode/decode scratch, pipeline
// workers — lives here. A single-run endpoint (Listen/Connect) owns a
// private mesh for its lifetime; a job-attached endpoint (Attach)
// borrows a standing mesh for one job and detaches, leaving the
// connections — and any bytes buffered on them — intact for the next
// job's endpoint. Each data connection is serviced by a persistent
// worker goroutine that lives from Connect/Attach to Detach/Close.
type Endpoint[M any] struct {
	*Mesh
	codec wire.Codec[M]

	// wireVersion selects the batch encoding the writers ship
	// (wire.BatchV2 by default); the readers accept either version via
	// the dispatching decoder regardless.
	wireVersion byte

	// jobID/jobbed scope this endpoint's data frames to one job of a
	// resident mesh (wire doc.go "Job-scoped frames"): writers prefix
	// every batch with the job header, readers reject frames scoped to
	// any other job, and MachineError attribution carries the ID.
	// Single-run endpoints leave jobbed false and ship bare frames.
	jobID  uint64
	jobbed bool

	// Pipeline worker state, created once per endpoint lifetime. The
	// channels carry at most one job (Exchange is a barrier, so a
	// second superstep cannot be signalled before the first drains);
	// workWG counts in-flight jobs. Worker failures land in the
	// cause/shrapnel pair below — all hoisted out of the per-call path,
	// so a steady-state superstep allocates nothing.
	started  bool
	writerCh []chan pipeJob
	readerCh []chan pipeJob
	workWG   sync.WaitGroup

	// Worker error state, reset per superstep and guarded by mu. The
	// FIRST-ARRIVING genuine error wins (cause), because causality on a
	// failing mesh is temporal: the machine that died emits its FIN
	// before the cascade of peer teardowns it triggers, so a
	// slot-ordered scan could blame a healthy peer whose own teardown
	// EOF happened to sit in an earlier slot. net.ErrClosed failures —
	// shrapnel of our own cascade close — are kept apart and reported
	// only when no genuine cause surfaced.
	cause, shrapnel error

	// Per-superstep scratch, recycled across calls (the transport
	// ownership rule). perDest/tx/frame/rx are dead once Exchange
	// returns and are single-buffered; the assembled inbox is handed to
	// the caller and double-buffered so the previous superstep's
	// envelopes survive while the next one is built. hdr is the caller's
	// header for the superstep in flight; hdrs, the headers received,
	// alias the frame buffers and stay valid until the next Exchange.
	perDest [][]transport.Envelope[M] // outgoing split by destination
	tx      [][]byte                  // per-peer batch encode buffers
	frame   [][]byte                  // per-peer frame read buffers
	rx      [][]transport.Envelope[M] // per-peer decoded batches
	inboxes [2][]transport.Envelope[M]
	gen     int
	hdr     []byte
	hdrs    [][]byte

	// serialWriters, sampled at construction, records that the process
	// has a single execution core (GOMAXPROCS=1): parallel writer workers
	// then cannot overlap with anything, and every wakeup is a pure
	// scheduling tax, so Exchange's inline serial-write path is taken
	// unconditionally. Readers stay parallel regardless — a read is
	// mostly netpoll parking, which costs no core while it waits.
	serialWriters bool

	// Bytes-on-wire accounting: every frame that crosses a socket —
	// batches with their headers, and blame frames — is counted with its
	// length prefix, against the peer it crossed to or from. Atomics
	// because writers, readers, and the blame broadcast account
	// concurrently; WireStats sums the lanes into totals on demand.
	wirePeers []peerWire // indexed by peer machine ID; [e.id] stays zero

	// rec, when non-nil, receives per-frame telemetry spans from the
	// pipeline workers (obs.PhaseFrameWrite/Read/Decode). Set via
	// SetRecorder before the first superstep; read without
	// synchronisation on the hot paths.
	rec obs.Recorder

	// mu serialises job signalling against Close so a send can never
	// race the closing of a signal channel, and closed gates supersteps
	// on an endpoint that is already torn down.
	mu        sync.Mutex
	closed    bool
	closeOnce sync.Once
	closeErr  error
}

// newEndpoint wires a typed endpoint onto a mesh (private or standing).
func newEndpoint[M any](m *Mesh, codec wire.Codec[M]) *Endpoint[M] {
	k := m.k
	return &Endpoint[M]{
		Mesh:        m,
		codec:       codec,
		wireVersion: wire.BatchV2,
		perDest:     make([][]transport.Envelope[M], k),
		tx:          make([][]byte, k),
		frame:       make([][]byte, k),
		rx:          make([][]transport.Envelope[M], k),
		hdrs:        make([][]byte, k),
		wirePeers:   make([]peerWire, k),

		serialWriters: runtime.GOMAXPROCS(0) == 1,
	}
}

// Listen opens machine id's listener on addr ("host:0" picks a free
// port). Connect must be called before the endpoint can exchange. The
// endpoint owns its mesh: Close tears both down.
func Listen[M any](id, k int, addr string, codec wire.Codec[M]) (*Endpoint[M], error) {
	m, err := ListenMesh(id, k, addr)
	if err != nil {
		return nil, err
	}
	return newEndpoint(m, codec), nil
}

// Attach binds a typed per-job endpoint to a standing, connected mesh:
// fresh pipeline workers are spawned over the mesh's existing
// connections (cheap — no dials, no handshakes), every data frame the
// endpoint ships carries the job header for `job`, and frames scoped to
// any other job are rejected as attributed errors. On clean job end
// call Detach, which retires the workers and leaves the mesh reusable;
// Close (taken automatically on any failure) poisons the mesh, because
// closing the connections is what unblocks the surviving peers.
func Attach[M any](m *Mesh, codec wire.Codec[M], job uint64) (*Endpoint[M], error) {
	m.mu.Lock()
	connected, closed := m.connected, m.closed
	m.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("tcp: machine %d attach job %d to closed mesh: %w", m.id, job, net.ErrClosed)
	}
	if !connected {
		return nil, fmt.Errorf("tcp: machine %d attach job %d to unconnected mesh", m.id, job)
	}
	e := newEndpoint(m, codec)
	e.jobID, e.jobbed = job, true
	e.startPipeline()
	return e, nil
}

// peerWire is one peer's lane of the wire counters.
type peerWire struct {
	sentFrames, recvFrames atomic.Int64
	sentBytes, recvBytes   atomic.Int64
}

// SetWireVersion selects the batch format the endpoint's writers ship:
// wire.BatchV2 (the default) or wire.BatchV1 for the legacy layout.
// Readers accept both regardless, so endpoints of different versions
// interoperate in one mesh. Call it after Connect and before the first
// superstep; it must not be changed mid-run.
func (e *Endpoint[M]) SetWireVersion(v byte) error {
	if v != wire.BatchV1 && v != wire.BatchV2 {
		return fmt.Errorf("tcp: unknown wire version 0x%02x", v)
	}
	e.wireVersion = v
	return nil
}

// WireStats returns the endpoint's physical-layer counters: frames and
// actual bytes (length prefix included) sent and received, with a
// per-peer breakdown in PerPeer (indexed by peer machine ID; the
// endpoint's own slot stays zero). Safe to call at any time, including
// mid-run.
func (e *Endpoint[M]) WireStats() transport.WireStats {
	w := transport.WireStats{PerPeer: make([]transport.PeerWireStats, e.k)}
	for j := range e.wirePeers {
		p := &e.wirePeers[j]
		pp := transport.PeerWireStats{
			FramesSent: p.sentFrames.Load(),
			FramesRecv: p.recvFrames.Load(),
			BytesSent:  p.sentBytes.Load(),
			BytesRecv:  p.recvBytes.Load(),
		}
		w.PerPeer[j] = pp
		w.FramesSent += pp.FramesSent
		w.FramesRecv += pp.FramesRecv
		w.BytesSent += pp.BytesSent
		w.BytesRecv += pp.BytesRecv
	}
	return w
}

// SetRecorder installs the telemetry recorder the pipeline workers
// record frame spans into (implements the transport.TraceSink shape at
// the endpoint level). Must be called before the first superstep; nil
// (the default) keeps the workers on their span-free path.
func (e *Endpoint[M]) SetRecorder(r obs.Recorder) { e.rec = r }

func (e *Endpoint[M]) countSent(peer, payloadLen int) {
	p := &e.wirePeers[peer]
	p.sentFrames.Add(1)
	p.sentBytes.Add(int64(wire.FrameSize(payloadLen)))
}

func (e *Endpoint[M]) countRecv(peer, payloadLen int) {
	p := &e.wirePeers[peer]
	p.recvFrames.Add(1)
	p.recvBytes.Add(int64(wire.FrameSize(payloadLen)))
}

// Connect completes the endpoint's private mesh (see Mesh.Connect for
// the dial/accept discipline). On success the persistent pipeline
// workers are spawned; they park between supersteps and exit on Close.
func (e *Endpoint[M]) Connect(peers []string, timeout time.Duration) error {
	if err := e.Mesh.Connect(peers, timeout); err != nil {
		e.Close()
		return err
	}
	e.startPipeline()
	return nil
}

// startPipeline spawns the persistent per-connection workers: a writer
// and a reader per peer. Workers park on their signal channel between
// supersteps and exit when Close closes it.
func (e *Endpoint[M]) startPipeline() {
	e.writerCh = make([]chan pipeJob, e.k)
	e.readerCh = make([]chan pipeJob, e.k)
	for j := 0; j < e.k; j++ {
		if j == e.id {
			continue
		}
		e.writerCh[j] = make(chan pipeJob, 1)
		e.readerCh[j] = make(chan pipeJob, 1)
		go e.pipeWorker(e.writerCh[j], func(job pipeJob) { e.runWriter(j, job) })
		go e.pipeWorker(e.readerCh[j], func(job pipeJob) { e.runReader(j, job) })
	}
	e.mu.Lock()
	e.started = true
	e.mu.Unlock()
}

// pipeWorker is the body of every persistent pipeline goroutine: run
// one job per signal, park in between, exit when the signal channel
// closes. The park is a bare channel receive — no select — because the
// channel doubles as the quit signal: the signal/Close mutex
// guarantees no send can follow the close, and a job already buffered
// when Close fires is still delivered before the closed-channel zero
// value, so the signaller's WaitGroup always drains (the job's I/O
// fails fast on the closed connections).
func (e *Endpoint[M]) pipeWorker(ch chan pipeJob, run func(pipeJob)) {
	for job := range ch {
		run(job)
		e.workWG.Done()
	}
}

// recordErr files a worker failure: net.ErrClosed errors — the debris
// of our own teardown — go to shrapnel, apart from genuine causes, and
// within each class the first arrival wins. Returns whether err was
// installed as the genuine cause.
func (e *Endpoint[M]) recordErr(err error) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if errors.Is(err, net.ErrClosed) {
		if e.shrapnel == nil {
			e.shrapnel = err
		}
		return false
	}
	if e.cause == nil {
		e.cause = err
		return true
	}
	return false
}

// blameWriteTimeout bounds the best-effort blame broadcast of a failing
// endpoint: the frames are a handful of bytes, so the deadline only
// matters against a peer whose receive buffer is completely wedged —
// and teardown must not wait longer than this on such a peer.
const blameWriteTimeout = time.Second

// fail records a data-path failure and tears the endpoint down
// immediately: the peers (and our own parked readers) are blocked in
// reads bounded only by the superstep deadline — which may be absent —
// and closing the connections is what converts a wedged cluster into an
// error cascade right away; each endpoint's failed read closes it in
// turn. Without this a single broken connection would stall every
// machine until the deadline (or forever without one).
//
// Before closing, the first genuine failure is broadcast as a blame
// frame on every data connection. This is what keeps attribution
// correct across the cascade the close triggers: a peer reading our
// connection finds "machine v failed" ahead of the FIN, instead of a
// bare EOF it would have to attribute to US. Without it, a machine
// whose exchange starts after the cascade has begun sees
// indistinguishable EOFs from the victim and from healthy-but-closing
// peers, and the persistent pipeline reacts fast enough to make that
// race real (the slow per-superstep goroutine spawns of the previous
// engine masked it).
func (e *Endpoint[M]) fail(err error) {
	if e.recordErr(err) {
		e.castBlame(err)
	}
	e.Close()
}

// castBlame ships a best-effort blame frame to every data peer before
// the endpoint closes. Only machine-attributed causes are broadcast;
// the suspect itself is skipped (it is the one machine that cannot act
// on the news), as is any connection whose writer currently holds the
// write mutex — blocking there on a wedged writer would postpone the
// Close that fail() exists to perform, stalling the whole teardown.
func (e *Endpoint[M]) castBlame(cause error) {
	var me *transport.MachineError
	if !errors.As(cause, &me) || me.Machine < 0 {
		return
	}
	payload := wire.AppendAbort(nil, me.Superstep, me.Machine)
	dl := time.Now().Add(blameWriteTimeout)
	for j := 0; j < e.k; j++ {
		if j == e.id || j == int(me.Machine) || e.out[j] == nil {
			continue
		}
		if sent, err := e.out[j].tryWriteFrameLocked(dl, payload); sent && err == nil {
			e.countSent(j, len(payload))
		}
	}
}

// runWriter encodes and ships this superstep's batch for peer j: its
// own recycled buffer, its own connection, in parallel with every other
// writer — the serial encode loop of the previous engine is gone.
func (e *Endpoint[M]) runWriter(j int, job pipeJob) {
	var t0 int64
	if e.rec != nil {
		t0 = obs.Now()
	}
	base := e.tx[j][:0]
	if e.jobbed {
		// Job-attached endpoints scope every data frame: the header sits
		// ahead of the version byte, the batch encoding is untouched.
		base = wire.AppendJobHeader(base, e.jobID)
	}
	if e.hdr != nil {
		base = wire.AppendReport(base, e.hdr)
	}
	var buf []byte
	var err error
	if e.wireVersion == wire.BatchV1 {
		buf, err = wire.AppendBatchV1(base, job.step, transport.MachineID(e.id), e.perDest[j], e.codec)
	} else {
		buf, err = wire.AppendBatchV2(base, job.step, transport.MachineID(e.id), transport.MachineID(j), e.perDest[j], e.codec)
	}
	e.tx[j] = buf[:0]
	if err != nil {
		// An encode failure is OUR defect (a codec bug, a malformed
		// envelope), not peer j's: attribute it to this machine so the
		// blame broadcast names the actual culprit instead of spreading
		// "j failed" across the cluster.
		e.fail(&transport.MachineError{Machine: transport.MachineID(e.id), Superstep: job.step, Job: e.jobID,
			Err: fmt.Errorf("tcp: machine %d encode batch for %d: %w", e.id, j, err)})
		return
	}
	// writeFrameLocked installs job.dl first and refuses to write if the
	// deadline cannot be set: falling through into an unbounded write
	// would silently defeat the wedge detection the deadline exists for.
	if err := e.out[j].writeFrameLocked(job.dl, buf); err != nil {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d send to %d: %w", e.id, j, err)))
		return
	}
	e.countSent(j, len(buf))
	if e.rec != nil {
		e.rec.Record(obs.Span{Start: t0, Dur: obs.Now() - t0,
			Machine: int32(e.id), Peer: int32(j), Superstep: int32(job.step),
			Phase: obs.PhaseFrameWrite, Bytes: int32(wire.FrameSize(len(buf)))})
	}
}

// runReader receives and decodes peer j's batch for this superstep.
// Both the frame buffer and the decoded-envelope scratch are per-peer,
// so each is touched by exactly one goroutine; the decoded values are
// copied into the inbox during the merge, freeing both for reuse next
// superstep.
func (e *Endpoint[M]) runReader(j int, job pipeJob) {
	var t0 int64
	if e.rec != nil {
		t0 = obs.Now()
	}
	dc := e.in[j]
	if err := dc.c.SetReadDeadline(job.dl); err != nil {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d set read deadline for %d: %w", e.id, j, err)))
		return
	}
	frame, err := wire.ReadFrameInto(dc.r, e.frame[j])
	if err != nil {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d recv from %d: %w", e.id, j, err)))
		return
	}
	e.frame[j] = frame[:0]
	e.countRecv(j, len(frame))
	var t1 int64
	if e.rec != nil {
		// The read span is dominated by stall — waiting for peer j to
		// produce and ship its frame — which is the quantity worth
		// seeing per peer; the decode below gets its own span.
		t1 = obs.Now()
		e.rec.Record(obs.Span{Start: t0, Dur: t1 - t0,
			Machine: int32(e.id), Peer: int32(j), Superstep: int32(job.step),
			Phase: obs.PhaseFrameRead, Bytes: int32(wire.FrameSize(len(frame)))})
	}
	if len(frame) > 0 && frame[0] == wire.BatchAbort {
		// The peer is tearing down and names the machine it blames; the
		// abort precedes its FIN in stream order, so we learn the true
		// culprit instead of misattributing the peer's own EOF to it.
		// Blame frames are deliberately job-agnostic — a teardown must be
		// understood whichever job's endpoint reads it.
		bstep, suspect, aerr := wire.DecodeAbort(frame)
		if aerr != nil {
			e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d bad abort from %d: %w", e.id, j, aerr)))
			return
		}
		e.fail(&transport.MachineError{Machine: suspect, Superstep: job.step, Job: e.jobID,
			Err: fmt.Errorf("tcp: peer %d aborted superstep %d blaming machine %d", j, bstep, suspect)})
		return
	}
	payload := frame
	if e.jobbed {
		// Verify the frame belongs to OUR job before decoding a byte of
		// it: a straggler from a previous job decoded into this run would
		// corrupt it silently; rejected here it is a loud attributed error.
		gotJob, rest, jobbed, jerr := wire.PeelJobHeader(frame)
		if jerr != nil {
			e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d job header from %d: %w", e.id, j, jerr)))
			return
		}
		if !jobbed {
			e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d got job-less frame from %d during job %d", e.id, j, e.jobID)))
			return
		}
		if gotJob != e.jobID {
			e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d got frame for job %d from %d during job %d", e.id, gotJob, j, e.jobID)))
			return
		}
		payload = rest
	}
	hdr, rest, _, herr := wire.PeelReport(payload)
	if herr != nil {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d header from %d: %w", e.id, j, herr)))
		return
	}
	e.hdrs[j], payload = hdr, rest
	gotStep, from, envs, err := wire.DecodeBatchAnyInto(payload, e.codec, transport.MachineID(j), transport.MachineID(e.id), e.rx[j])
	if e.rec != nil {
		e.rec.Record(obs.Span{Start: t1, Dur: obs.Now() - t1,
			Machine: int32(e.id), Peer: int32(j), Superstep: int32(job.step),
			Phase: obs.PhaseFrameDecode})
	}
	if err != nil {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d decode from %d: %w", e.id, j, err)))
		return
	}
	e.rx[j] = envs
	if gotStep != job.step || int(from) != j {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d expected (superstep %d, from %d), got (%d, %d)",
			e.id, job.step, j, gotStep, from)))
		return
	}
}

// ioGuard applies ctx to the endpoint's blocking socket I/O. It returns
// the connection deadline to install before each read/write (zero when
// ctx has none, which clears any deadline left by a previous superstep)
// and a release function — nil for an uncancellable ctx, so the
// happy-path superstep allocates neither the AfterFunc nor a closure —
// that the operation must call before returning when non-nil.
// While the operation is in flight, cancellation of ctx closes the
// whole endpoint: Close is the only way to unblock conns that are
// already parked in a read, and a canceled run is over anyway — the
// mesh is single-run and not restartable after a failure.
func (e *Endpoint[M]) ioGuard(ctx context.Context) (deadline time.Time, release func() bool) {
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	if ctx.Done() == nil {
		return deadline, nil
	}
	return deadline, context.AfterFunc(ctx, func() {
		// Only explicit cancellation closes here: deadline expiry is
		// already enforced by the connection deadlines installed above,
		// and letting them fire keeps the error deterministically
		// os.ErrDeadlineExceeded instead of racing it against a close.
		// ctx.Err() (not Cause) is what distinguishes the two — it is
		// context.Canceled for every cancellation, including one with a
		// custom cause via WithCancelCause.
		if errors.Is(ctx.Err(), context.Canceled) {
			e.Close()
		}
	})
}

// attributed wraps a per-peer failure as a transport.MachineError naming
// the peer machine and superstep, translating an expired I/O deadline
// into a diagnosis the caller can act on.
func attributed(peer, step int, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = fmt.Errorf("no data within the superstep deadline (peer crashed or wedged?): %w", err)
	}
	return &transport.MachineError{Machine: transport.MachineID(peer), Superstep: step, Err: err}
}

// attrib is attributed plus the endpoint's job stamp: failures of a
// job-attached endpoint name the job they killed, so a multi-job daemon
// can fail exactly one submission. Zero (single-run endpoints) means
// "no job" and prints as before.
func (e *Endpoint[M]) attrib(peer, step int, err error) error {
	me := attributed(peer, step, err).(*transport.MachineError)
	me.Job = e.jobID
	return me
}

// mergeInbox assembles the superstep's inbox in sender-ID order into
// the double-buffered storage: the previous superstep's inbox (the
// other generation) is still readable by the caller per the ownership
// rule. Call only after the pipeline generation drained error-free.
func (e *Endpoint[M]) mergeInbox() []transport.Envelope[M] {
	perSender := e.rx
	total := len(e.perDest[e.id])
	for s := 0; s < e.k; s++ {
		if s != e.id {
			total += len(perSender[s])
		}
	}
	buf := e.inboxes[e.gen]
	if cap(buf) < total {
		buf = make([]transport.Envelope[M], 0, total)
	}
	inbox := buf[:0]
	for s := 0; s < e.k; s++ {
		if s == e.id {
			inbox = append(inbox, e.perDest[s]...)
			continue
		}
		inbox = append(inbox, perSender[s]...)
	}
	e.inboxes[e.gen] = inbox
	e.gen ^= 1
	return inbox
}

// Exchange runs superstep `step` on this endpoint: it ships `out` —
// the machine's envelopes, self-addressed ones included — one frame per
// peer, empty batches included, waits for the whole pipeline generation
// (readers and writers) to drain, and merges the peers' batches into
// the inbox in sender-ID order, self-addressed envelopes at position
// e.id, exactly like the loopback transport. Self-addressed envelopes
// never touch a socket.
//
// hdr, when non-nil, rides ahead of the batch in every frame sent
// (wire.AppendReport). hdrs holds the k headers of the superstep in
// sender order: hdr itself at e.id, nil for a peer whose frame carried
// none. Peer headers alias recycled frame storage and stay valid until
// the next Exchange.
//
// ctx's deadline is installed on every connection before I/O: a dead
// or wedged peer surfaces as a *transport.MachineError (wrapping
// os.ErrDeadlineExceeded) within it, and cancellation tears the
// endpoint down, unblocking every parked read. After any error the
// endpoint is closed and unusable.
func (e *Endpoint[M]) Exchange(ctx context.Context, step int, hdr []byte, out []transport.Envelope[M]) (inbox []transport.Envelope[M], hdrs [][]byte, err error) {
	perDest := e.perDest
	for j := range perDest {
		perDest[j] = perDest[j][:0]
	}
	for _, env := range out {
		if env.To < 0 || int(env.To) >= e.k {
			e.Close() // peers are waiting on our batches; unblock them
			return nil, nil, fmt.Errorf("tcp: machine %d envelope to invalid machine %d", e.id, env.To)
		}
		perDest[env.To] = append(perDest[env.To], env)
	}
	sent := len(out) - len(perDest[e.id])

	dl, release := e.ioGuard(ctx)
	if release != nil {
		defer release()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, nil, fmt.Errorf("tcp: machine %d exchange superstep %d on closed endpoint: %w", e.id, step, net.ErrClosed)
	}
	if !e.started {
		e.mu.Unlock()
		return nil, nil, fmt.Errorf("tcp: machine %d exchange superstep %d before Connect", e.id, step)
	}
	e.cause, e.shrapnel = nil, nil
	e.hdr, e.hdrs[e.id] = hdr, hdr
	job := pipeJob{step: step, dl: dl}
	// Tiny supersteps skip the writer wakeups: when at most ~2
	// envelopes per peer leave, encoding is trivial and the cost of
	// signalling k-1 parked goroutines dominates shipping k-1 few-byte
	// frames (the k=16/batch=1 regression of the parallel pipeline).
	// Write them serially on this goroutine instead — each connection's
	// buffered writer still coalesces prefix+payload into one
	// flush/syscall — while the readers stay parallel. A GOMAXPROCS=1
	// process takes this path for every superstep: with one core the
	// parallel writers can't overlap anyway, so the wakeups are all tax.
	inline := e.serialWriters || sent <= 2*e.k
	// Signal order rotates with the superstep: machine i starts its
	// sweep at peer (i+step) mod k, so the k machines do not all hammer
	// peer 0's sockets first every superstep.
	if !inline {
		// Writers are released before the readers: on a loaded machine
		// the scheduler then tends to ship our outgoing frames before
		// the readers poll, so reads find their peer's data already
		// buffered instead of parking in netpoll first.
		e.workWG.Add(e.k - 1)
		for o := 0; o < e.k; o++ {
			if j := (e.id + step + o) % e.k; j != e.id {
				e.writerCh[j] <- job
			}
		}
	}
	e.workWG.Add(e.k - 1)
	for o := 0; o < e.k; o++ {
		if j := (e.id + step + o) % e.k; j != e.id {
			e.readerCh[j] <- job
		}
	}
	e.mu.Unlock()
	if inline {
		for o := 0; o < e.k; o++ {
			if j := (e.id + step + o) % e.k; j != e.id {
				e.runWriter(j, job)
			}
		}
	}

	e.workWG.Wait()
	// Report the error that diagnoses the failure, not the teardown:
	// recordErr kept the first genuine cause (a peer's FIN, a reset, an
	// expired deadline) apart from the net.ErrClosed shrapnel of our own
	// cascade close, so the genuine cause — which names the actual
	// culprit — wins whenever one exists. The workWG barrier above is
	// the happens-before edge that makes the plain reads safe.
	if err := e.cause; err != nil {
		return nil, nil, err
	}
	if err := e.shrapnel; err != nil {
		return nil, nil, err
	}
	return e.mergeInbox(), e.hdrs, nil
}

// retireWorkers closes every pipeline signal channel, run at most once
// (via closeOnce) by Detach or Close. No signal can race it: the
// caller set closed under mu first, signals are sent only while holding
// mu with closed unset, and buffered jobs survive a channel close, so
// in-flight supersteps still drain.
func (e *Endpoint[M]) retireWorkers() {
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if !started {
		return
	}
	for _, ch := range e.writerCh {
		if ch != nil {
			close(ch)
		}
	}
	for _, ch := range e.readerCh {
		if ch != nil {
			close(ch)
		}
	}
}

// Detach retires the endpoint's pipeline workers and ends its use of
// the mesh WITHOUT closing any connection — the standing fabric (and
// any bytes buffered on it) stays intact for the next job's endpoint.
// Valid only at a quiescent point: every frame a peer sent has been
// read — the node runtime's final exchange, in which every machine
// reads every peer's last frame, certifies that. A failed endpoint must
// use Close instead; after Detach the endpoint itself is dead either
// way.
func (e *Endpoint[M]) Detach() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.closeOnce.Do(e.retireWorkers)
}

// Close retires the pipeline workers and tears down the mesh — the
// listener and every connection — unblocking all pending I/O. It is
// idempotent — concurrent and repeated calls are safe and return the
// first call's result — which is what lets the error-cascade teardown,
// context cancellation (ioGuard), and the caller's own deferred Close
// coexist. Closing a job-attached endpoint poisons the standing mesh
// deliberately: a failure is only survivable cluster-wide by closing
// the connections every peer is parked on.
func (e *Endpoint[M]) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.closeOnce.Do(e.retireWorkers)
	return e.Mesh.Close()
}

// NewLoopbackMesh builds the complete k-endpoint mesh over loopback TCP
// inside one process: k listeners on 127.0.0.1, every ordered pair
// connected. Used by the cluster Transport and by kmnode -local.
func NewLoopbackMesh[M any](k int, codec wire.Codec[M]) ([]*Endpoint[M], error) {
	eps := make([]*Endpoint[M], k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		e, err := Listen[M](i, k, "127.0.0.1:0", codec)
		if err != nil {
			for _, prev := range eps[:i] {
				prev.Close()
			}
			return nil, err
		}
		eps[i] = e
		addrs[i] = e.Addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = eps[i].Connect(addrs, DefaultDialTimeout)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, e := range eps {
				e.Close()
			}
			return nil, err
		}
	}
	return eps, nil
}

// driveJob is one superstep's assignment for a cluster-side endpoint
// driver: exchange this superstep's outbox under this context.
type driveJob[M any] struct {
	ctx  context.Context
	step int
	out  []transport.Envelope[M]
}

// Transport is the cluster-side transport.Transport implementation: all
// k machines live in this process, but every envelope crosses a real
// loopback TCP connection. Each endpoint is owned by a persistent driver
// goroutine, signalled once per superstep — no goroutine or error-slice
// churn on the steady-state path. A superstep ends when all k drivers
// have returned: an endpoint's Exchange returns only after its
// k-1 readers have received and checked their peer's frame for that
// superstep (empty batches included), so the drivers' WaitGroup is
// already the observation barrier and no control-plane round is needed.
type Transport[M any] struct {
	eps []*Endpoint[M]
	// inboxes are the double-buffered outer slices handed to the
	// cluster; the envelope storage inside is owned (and recycled) by
	// the endpoints.
	inboxes [2][][]transport.Envelope[M]
	gen     int

	drive   []chan driveJob[M]
	wg      sync.WaitGroup
	errs    []error
	results [][]transport.Envelope[M]

	mu        sync.Mutex
	closed    bool
	closeOnce sync.Once
}

// New builds a loopback-TCP transport for a k-machine cluster.
func New[M any](k int, codec wire.Codec[M]) (*Transport[M], error) {
	return NewWithVersion[M](k, codec, wire.BatchV2)
}

// NewWithVersion is New shipping the given wire batch version
// (wire.BatchV1 or wire.BatchV2) — the A/B surface for measuring the v2
// format's bytes-on-wire savings on identical runs.
func NewWithVersion[M any](k int, codec wire.Codec[M], version byte) (*Transport[M], error) {
	eps, err := NewLoopbackMesh(k, codec)
	if err != nil {
		return nil, err
	}
	t := &Transport[M]{
		eps:     eps,
		drive:   make([]chan driveJob[M], k),
		errs:    make([]error, k),
		results: make([][]transport.Envelope[M], k),
	}
	for i := 0; i < k; i++ {
		if err := eps[i].SetWireVersion(version); err != nil {
			t.Close()
			return nil, err
		}
		t.drive[i] = make(chan driveJob[M], 1)
		go t.driver(i)
	}
	return t, nil
}

// driver is the persistent goroutine owning endpoint i: one endpoint
// Exchange per signal, parked in between, exits when Close
// closes its channel. The same close-under-mutex discipline as the
// endpoint's pipeWorker keeps the WaitGroup sound against a concurrent
// Close. On error the endpoint has already closed itself; the close
// cascades error returns to every peer blocked on its connections, so
// no driver hangs.
func (t *Transport[M]) driver(i int) {
	for job := range t.drive[i] {
		t.results[i], _, t.errs[i] = t.eps[i].Exchange(job.ctx, job.step, nil, job.out)
		t.wg.Done()
	}
}

// Exchange implements transport.Transport: each endpoint ships its
// envelopes over its sockets concurrently (signalled to the persistent
// drivers), and no inbox is released to the cluster before every
// endpoint has received all of its peers' frames. The per-endpoint
// inboxes reach the cluster in double-buffered outer slices.
func (t *Transport[M]) Exchange(ctx context.Context, step int, outs [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	k := len(t.eps)
	if len(outs) != k {
		return nil, fmt.Errorf("tcp: got %d outboxes for a %d-machine cluster", len(outs), k)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp: exchange superstep %d on closed transport: %w", step, net.ErrClosed)
	}
	for i := 0; i < k; i++ {
		t.errs[i] = nil
		t.results[i] = nil
	}
	t.wg.Add(k)
	for i := 0; i < k; i++ {
		t.drive[i] <- driveJob[M]{ctx: ctx, step: step, out: outs[i]}
	}
	t.mu.Unlock()
	t.wg.Wait()

	// Prefer the error that diagnoses the failure: a machine-attributed
	// error that is not close-shrapnel (net.ErrClosed from our own
	// cascade teardown) beats an attributed shrapnel error, which beats
	// an unattributed one. When machine j dies, the survivors' errors
	// name j while j's own endpoint reports only its severed sockets.
	var attributed, first error
	for _, err := range t.errs {
		if err == nil {
			continue
		}
		var me *transport.MachineError
		if errors.As(err, &me) {
			if !errors.Is(err, net.ErrClosed) {
				return nil, err
			}
			if attributed == nil {
				attributed = err
			}
		}
		if first == nil {
			first = err
		}
	}
	if attributed != nil {
		return nil, attributed
	}
	if first != nil {
		return nil, first
	}

	if t.inboxes[t.gen] == nil {
		t.inboxes[t.gen] = make([][]transport.Envelope[M], k)
	}
	inboxes := t.inboxes[t.gen]
	t.gen ^= 1
	copy(inboxes, t.results)
	return inboxes, nil
}

// WireStats sums the physical-layer counters of every endpoint: total
// frames and bytes that crossed the loopback sockets. In a healthy mesh
// sent and received totals match.
func (t *Transport[M]) WireStats() transport.WireStats {
	var w transport.WireStats
	for _, e := range t.eps {
		w = w.Plus(e.WireStats())
	}
	return w
}

// SetRecorder implements transport.TraceSink: every endpoint's pipeline
// workers record their per-peer frame spans into r. Call before the
// first superstep.
func (t *Transport[M]) SetRecorder(r obs.Recorder) {
	for _, e := range t.eps {
		e.SetRecorder(r)
	}
}

// SeverMachine forcibly closes machine i's endpoint — its listener and
// every connection — simulating that machine's process dying mid-run.
// Survivors observe the severed connections as attributed errors on
// their next (or in-flight) superstep. It exists for fault injection:
// transport/chaos's drop-connection fault calls it to make "peer died"
// deterministically reproducible in tests.
func (t *Transport[M]) SeverMachine(i int) error {
	if i < 0 || i >= len(t.eps) {
		return fmt.Errorf("tcp: cannot sever machine %d of %d", i, len(t.eps))
	}
	return t.eps[i].Close()
}

// Close retires the drivers and tears down every endpoint.
func (t *Transport[M]) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.closeOnce.Do(func() {
		for _, ch := range t.drive {
			if ch != nil {
				// A construction failure can reach Close before every
				// driver channel exists.
				close(ch)
			}
		}
	})
	var first error
	for _, e := range t.eps {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
