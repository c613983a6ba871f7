package tcp

import (
	"bufio"
	"net"
	"time"

	"kmachine/internal/transport/wire"
)

// bufWriter / bufReader are the buffered halves of a connection; named
// so the Endpoint fields read as intent rather than bufio plumbing.
type bufWriter = bufio.Writer
type bufReader = bufio.Reader

const connBufSize = 64 << 10

func newDataConn(c net.Conn) *dataConn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Batches are written once per superstep and flushed whole;
		// Nagle only adds latency to the small ones (empty batches,
		// blame frames).
		tc.SetNoDelay(true)
	}
	return &dataConn{
		c: c,
		w: bufio.NewWriterSize(c, connBufSize),
		r: bufio.NewReaderSize(c, connBufSize),
	}
}

// writeFrameLocked ships one frame under the connection's write mutex:
// the writer worker and a concurrent blame broadcast (castBlame) may
// target the same connection, and the mutex is what keeps their frames
// whole on the stream.
func (dc *dataConn) writeFrameLocked(dl time.Time, payload []byte) error {
	dc.wmu.Lock()
	defer dc.wmu.Unlock()
	return dc.writeFrame(dl, payload)
}

// tryWriteFrameLocked is writeFrameLocked for callers that must not
// block on the mutex: if the owning writer is mid-frame (or wedged in
// one), it reports false without writing. The blame broadcast uses it —
// a teardown must never wait on a connection whose writer is stuck.
func (dc *dataConn) tryWriteFrameLocked(dl time.Time, payload []byte) (bool, error) {
	if !dc.wmu.TryLock() {
		return false, nil
	}
	defer dc.wmu.Unlock()
	return true, dc.writeFrame(dl, payload)
}

func (dc *dataConn) writeFrame(dl time.Time, payload []byte) error {
	if err := dc.c.SetWriteDeadline(dl); err != nil {
		return err
	}
	if err := wire.WriteFrame(dc.w, payload); err != nil {
		return err
	}
	return dc.w.Flush()
}
