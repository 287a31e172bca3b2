package server

import (
	"io"
	"net"
	"sync"
)

// maxPending bounds the bytes a ConnWriter holds for the socket. An append
// that finds the pending buffer at or above it waits for the socket to drain
// it, so a peer that stops reading backpressures its writers instead of
// growing the buffer without bound. One frame may overshoot the bound.
const maxPending = 256 << 10

// ConnWriter is the single write path of one connection, shared by the
// client, the server and the volume proxy. Callers encode frames or
// responses into the connection's pending buffer under a mutex; one
// long-lived goroutine hands everything pending to the socket in a single
// Write. Frames reach the wire in append order, and a burst of appends that
// lands while a Write is in progress costs one more Write, not one each.
//
// A socket error is terminal: the writer drops what is pending, reports the
// error once to the onErr callback, and fails every later append with it
// without blocking, so no caller can wedge on a dead connection.
type ConnWriter struct {
	w     io.Writer
	onErr func(error)

	mu      sync.Mutex
	ready   sync.Cond // signalled when buf turns non-empty or the writer closes
	space   sync.Cond // broadcast when the socket drained buf or the writer died
	buf     []byte    // encoded bytes not yet handed to the socket
	spare   []byte    // the buffer of the last Write, reused for the next batch
	err     error     // terminal write error, or net.ErrClosed after Close
	closing bool

	done chan struct{}
}

// NewConnWriter starts the writer goroutine for w. onErr, when non-nil, is
// called once from that goroutine if a Write fails.
func NewConnWriter(w io.Writer, onErr func(error)) *ConnWriter {
	cw := &ConnWriter{w: w, onErr: onErr, done: make(chan struct{})}
	cw.ready.L = &cw.mu
	cw.space.L = &cw.mu
	go cw.loop()
	return cw
}

// WriteFrame queues one request frame. An unencodable frame returns its
// encoding error (wrapping ErrFrameSize or ErrBadFrame) and leaves the
// connection untouched; any other error is the connection's terminal one.
func (cw *ConnWriter) WriteFrame(f Frame) error {
	if err := cw.lockForAppend(); err != nil {
		return err
	}
	out, err := AppendFrame(cw.buf, f)
	if err == nil {
		cw.commit(out)
	}
	cw.mu.Unlock()
	return err
}

// WriteResponse queues one response and returns its encoded size. An
// unencodable response (oversized payload) is degraded to StatusInternal for
// the same ID, so the peer still gets an answer and later responses on the
// connection are unaffected. The error is the connection's terminal one.
func (cw *ConnWriter) WriteResponse(r Response) (int, error) {
	if err := cw.lockForAppend(); err != nil {
		return 0, err
	}
	n := len(cw.buf)
	out, err := AppendResponse(cw.buf, r)
	if err != nil {
		out, _ = AppendResponse(cw.buf, Response{
			Status: StatusInternal, ID: r.ID, Payload: []byte(err.Error()),
		})
	}
	cw.commit(out)
	cw.mu.Unlock()
	return len(out) - n, nil
}

// lockForAppend takes the mutex once the pending buffer has room. On error
// the mutex is not held.
func (cw *ConnWriter) lockForAppend() error {
	cw.mu.Lock()
	for cw.err == nil && len(cw.buf) >= maxPending {
		cw.space.Wait()
	}
	if cw.err != nil {
		err := cw.err
		cw.mu.Unlock()
		return err
	}
	return nil
}

// commit installs the extended pending buffer, waking the writer goroutine
// when the buffer was empty (otherwise it is already awake or about to look).
func (cw *ConnWriter) commit(out []byte) {
	if len(cw.buf) == 0 {
		cw.ready.Signal()
	}
	cw.buf = out
}

// Close writes out everything pending, stops the writer goroutine, and
// returns the terminal write error, if any. Later appends fail with
// net.ErrClosed. To abandon pending bytes instead, close the socket first.
func (cw *ConnWriter) Close() error {
	cw.mu.Lock()
	cw.closing = true
	cw.ready.Signal()
	cw.mu.Unlock()
	<-cw.done
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err == net.ErrClosed {
		return nil
	}
	return cw.err
}

// loop hands batches to the socket until Close drains it or a Write fails.
func (cw *ConnWriter) loop() {
	defer close(cw.done)
	cw.mu.Lock()
	for {
		for len(cw.buf) == 0 && !cw.closing {
			cw.ready.Wait()
		}
		if len(cw.buf) == 0 {
			cw.err = net.ErrClosed
			cw.space.Broadcast()
			cw.mu.Unlock()
			return
		}
		batch := cw.buf
		cw.buf = cw.spare[:0]
		cw.mu.Unlock()
		_, err := cw.w.Write(batch)
		cw.mu.Lock()
		// Keep the batch buffer for reuse unless one oversized frame grew it
		// far past the pending bound.
		if cap(batch) <= 2*maxPending {
			cw.spare = batch[:0]
		} else {
			cw.spare = nil
		}
		if err != nil {
			cw.err = err
			cw.buf = nil
			cw.space.Broadcast()
			cw.mu.Unlock()
			if cw.onErr != nil {
				cw.onErr(err)
			}
			return
		}
		cw.space.Broadcast()
	}
}
