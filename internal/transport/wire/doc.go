// Package wire is the binary codec shared by every non-loopback
// transport: length-prefixed frames, varint-encoded envelope headers,
// and a Codec[M] abstraction for algorithm payloads.
//
// # Wire format
//
// All integers are LEB128 varints: unsigned ("uvarint") for counts,
// identifiers, and sizes; zigzag-signed ("varint") for payload fields
// that may be negative. Multi-byte values have no fixed width and no
// endianness concerns.
//
// Frame — the unit written to a net.Conn:
//
//	frame     := length payload
//	length    := uvarint              // payload size in bytes, <= MaxFrame
//
// Batch — one (sender, receiver, superstep) shipment of envelopes; the
// TCP transport writes exactly one batch frame per peer per superstep,
// empty batches included, which is what lets a receiver detect that a
// superstep's input is complete:
//
//	batch     := superstep sender count envelope*
//	superstep := uvarint              // zero-based superstep index
//	sender    := uvarint              // MachineID of the writing machine
//	count     := uvarint              // number of envelopes that follow
//
// Envelope — header plus algorithm payload:
//
//	envelope  := from to words msg
//	from      := uvarint              // MachineID, stamped by core
//	to        := uvarint              // MachineID
//	words     := uvarint              // size in machine words (cost model)
//	msg       := Codec[M]-defined bytes
//
// The envelope Words field travels on the wire even though the receiver
// could often recompute it, because the cost accounting in core treats
// it as authoritative: a transport must hand back exactly the word
// counts it was given.
//
// # Versioned batches (v2)
//
// The layout above is the legacy (version-less) v1 batch. Transports
// now ship versioned batches: the first byte of the batch body names
// the format (BatchV1 = 0x01 framing the v1 body verbatim, BatchV2 =
// 0x02 for the compact layout), and DecodeBatchAny dispatches on it —
// a v2-speaking endpoint still accepts a v1-framed peer.
//
// The v2 batch exploits that a TCP batch frame is already a
// per-(sender, receiver, superstep) unit carried by a connection that
// identifies both ends:
//
//	batchV2    := 0x02 superstep count              // empty batch
//	batchV2    := 0x02 superstep count run* words* payloadLen payload
//	superstep  := uvarint             // zero-based superstep index
//	count      := uvarint             // number of envelopes
//	run        := delta length        // From values, run-length encoded
//	delta      := varint              // zigzag delta vs previous run's From
//	                                  // (first run: vs the frame sender)
//	length     := uvarint             // envelopes sharing this From (>= 1);
//	                                  // run lengths sum to count
//	words      := uvarint             // one per envelope, in order
//	payloadLen := uvarint             // total bytes of the payload section
//	payload    := msg*                // Codec bytes, concatenated in order
//
// Three fields of v1 disappear: the batch sender (implied by the
// connection the frame arrives on, supplied to the decoder as an
// argument), the per-envelope To (implied by the frame destination),
// and the per-envelope From (collapsed to one two-byte run in the
// common case where every envelope carries the sender's own From). The
// payload length prefix lets a decoder validate the section boundary
// and pre-size scratch before touching codec bytes. Empty batches —
// the "nothing for you this superstep" markers that dominate frame
// counts for sparse traffic — end right after count, so they cost no
// more than their v1 equivalent.
//
// # Job-scoped frames
//
// A resident mesh executes many jobs over the same persistent
// connections (DESIGN.md "Job service"). Data frames of such a mesh are
// job-scoped: a job header sits where the batch version byte otherwise
// would, and the complete versioned batch follows unchanged, after an
// optional report section (below) —
//
//	jobbed     := 0x03 job [report] batchV1|batchV2
//	job        := uvarint             // job ID, assigned by the scheduler
//
// The header scopes, it does not re-encode: v1 and v2 bodies travel
// byte-identically inside it, so mixed-version meshes interoperate
// job-scoped exactly as they do bare. A reader attached for job J
// rejects a frame scoped to any other job (a straggler from a previous
// job, or a protocol bug) as an attributed error instead of decoding it
// into the wrong run; job-less endpoints (the single-run Listen/Connect
// path) never emit the header and reject it as an unknown version.
//
// A failing endpoint may ship one final frame on a data connection
// before closing it:
//
//	abort      := 0xFF superstep suspect
//	suspect    := uvarint             // MachineID the sender blames
//
// The abort precedes the connection's FIN in stream order, which is
// what lets a reader distinguish "this peer died" (bare EOF) from
// "this peer is tearing down because suspect died" — the basis of
// correct failure attribution across cascading teardowns (transport/tcp
// castBlame).
//
// # Report section
//
// A data frame may carry opaque header bytes for its receiver in a
// report section, placed after the job header (when there is one) and
// before the batch version byte:
//
//	report     := 0x04 replen rep
//	replen     := uvarint             // length of rep in bytes
//	rep        := replen bytes        // opaque to this package
//
// The standalone node runtime (transport/node) puts each machine's
// per-superstep report there — done, sent, messages, per-link words,
// and an optional error text — so every node can fold all k reports
// and decide termination itself without a control connection. A frame
// without the section carries no report; the cluster transport never
// writes one, so its frames are byte-identical to frames without this
// extension.
//
// # Arrival order
//
// Every machine writes exactly one frame per peer per superstep, after
// its compute, but the relative arrival order of frames from different
// senders carries no information. The per-frame superstep field is
// therefore the only valid sequencing key — a decoder may assert that
// consecutive frames on one connection carry monotonically increasing
// superstep values, but must never infer phase boundaries from
// inter-frame timing.
//
// # Payload codecs
//
// Codec[M] implementations live next to the message types they
// serialise: pagerank.WireCodec, dsort.WireCodec, conncomp.WireCodec,
// and triangle.WireCodec / triangle.BaselineWireCodec, each composed
// with routing.HopCodec when the algorithm routes through Valiant
// two-hop intermediates. Every codec has a round-trip property test in
// its home package.
package wire
