package auth

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/crp"
	"repro/internal/wire"
)

// Server side of the binary framing: one reader goroutine per
// connection demultiplexes frames onto per-stream transaction
// goroutines, which reply through a shared frameWriter. Streams
// complete out of order, so a slow verification does not head-of-line
// block the connection; MaxInFlight shedding applies per transaction,
// plus a per-connection stream cap.

// v2conn is the demultiplexer state for one connection.
type v2conn struct {
	ws   *WireServer
	conn net.Conn
	br   *bufio.Reader
	fw   *frameWriter
	// readerGone is closed when the read loop returns, so stream
	// goroutines stop waiting for frames that can no longer arrive.
	readerGone chan struct{}
	wg         sync.WaitGroup

	mu      sync.Mutex
	streams map[uint32]*v2stream
}

// v2stream is one in-flight transaction on a v2 connection.
type v2stream struct {
	id uint32
	// inbox carries this stream's continuation frames (response,
	// remap_done) from the reader to the transaction goroutine.
	inbox chan *wire.Buf
}

// serveStreams runs one connection, past its preamble, to completion:
// reader loop in this goroutine, one goroutine per open stream, one
// writer.
func (ws *WireServer) serveStreams(ctx context.Context, conn net.Conn, br *bufio.Reader) {
	c := &v2conn{
		ws:         ws,
		conn:       conn,
		br:         br,
		fw:         newFrameWriter(conn, ws.cfg.IdleTimeout),
		readerGone: make(chan struct{}),
		streams:    make(map[uint32]*v2stream),
	}
	go c.fw.loop()
	c.readLoop(ctx)
	close(c.readerGone)
	// Let in-flight streams finish their replies, then stop the
	// writer so their last frames are flushed before the connection
	// owner closes it.
	c.wg.Wait()
	c.fw.stop()
}

// readLoop reads frames until the peer breaks, stalls, or violates
// the framing.
//
// This is the client-facing demultiplexer: PROTOCOL.md confines the
// rep_* opcodes to a node's dedicated replication listener, and the
// repinvariant fence below pins this file's dispatch against the
// protocol's opcode table — a case arm accepting a rep_* opcode (by
// constant or by value) fails make lint.
//
//lint:repfence ../../docs/PROTOCOL.md#framing-v2-opcode-table
func (c *v2conn) readLoop(ctx context.Context) {
	for {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.ws.cfg.IdleTimeout)); err != nil {
			return
		}
		b := wire.GetBuf()
		if err := wire.ReadFrameInto(c.br, b, c.ws.cfg.MaxMessageBytes); err != nil {
			wire.PutBuf(b)
			return
		}
		switch b.Op {
		case wire.OpAuthenticate, wire.OpRemap:
			if !c.openStream(ctx, b) {
				return
			}
		case wire.OpResponse, wire.OpRemapDone:
			if !c.deliver(b) {
				return
			}
		case wire.OpProbe:
			// Health probe: answered inline from the read loop,
			// deliberately bypassing MaxInFlight shedding — a probe
			// measures liveness, and a loaded-but-alive node must still
			// answer it so the failure detector does not confuse load
			// with death.
			stream := b.Stream
			wire.PutBuf(b)
			out := wire.GetBuf()
			out.B = wire.AppendHealth(out.B[:0], stream, c.ws.healthReport())
			if !c.fw.send(out) {
				return
			}
		default:
			// A server-only or unknown opcode from a client is framing
			// confusion: answer typed, then hang up.
			stream := b.Stream
			op := b.Op
			wire.PutBuf(b)
			c.sendErrV2(stream, authErrf(CodeInvalidRequest, "", "unexpected opcode %q", op))
			return
		}
	}
}

// openStream admits an opening frame: stream-id and cap checks, then
// a transaction goroutine. False hangs the connection up.
func (c *v2conn) openStream(ctx context.Context, b *wire.Buf) bool {
	c.mu.Lock()
	if _, dup := c.streams[b.Stream]; dup {
		// Reusing a live stream id is a protocol violation.
		c.mu.Unlock()
		wire.PutBuf(b)
		return false
	}
	if len(c.streams) >= c.ws.cfg.MaxStreamsPerConn {
		c.mu.Unlock()
		stream := b.Stream
		wire.PutBuf(b)
		// Per-stream shedding: the connection stays healthy, only
		// this transaction is refused.
		c.sendErrV2(stream, authErrf(CodeUnavailable, "",
			"%w: per-connection stream cap %d reached", ErrUnavailable, c.ws.cfg.MaxStreamsPerConn))
		return true
	}
	st := &v2stream{id: b.Stream, inbox: make(chan *wire.Buf, 2)}
	c.streams[st.id] = st
	c.mu.Unlock()
	release := c.ws.acquire()
	if release == nil {
		// Global in-flight shedding: the client backs off and retries
		// on this healthy connection.
		c.closeStream(st.id)
		stream := b.Stream
		id := ClientID(b.B)
		wire.PutBuf(b)
		c.sendErrV2(stream, authErrf(CodeUnavailable, id,
			"%w: in-flight transaction cap %d reached", ErrUnavailable, c.ws.cfg.MaxInFlight))
		return true
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer c.closeStream(st.id)
		defer release()
		c.runStream(ctx, st, b)
	}()
	return true
}

// closeStream removes a stream and returns any undelivered frame to
// the pool.
func (c *v2conn) closeStream(id uint32) {
	c.mu.Lock()
	st := c.streams[id]
	delete(c.streams, id)
	c.mu.Unlock()
	if st == nil {
		return
	}
	for {
		select {
		case b := <-st.inbox:
			wire.PutBuf(b)
		default:
			return
		}
	}
}

// deliver routes a continuation frame to its stream; false hangs the
// connection up (a continuation for a stream that is not open is a
// protocol violation only a broken peer produces).
func (c *v2conn) deliver(b *wire.Buf) bool {
	c.mu.Lock()
	st := c.streams[b.Stream]
	c.mu.Unlock()
	if st == nil {
		wire.PutBuf(b)
		return false
	}
	select {
	case st.inbox <- b:
		return true
	default:
		// More than one outstanding continuation on a lock-step
		// stream: the peer is flooding.
		wire.PutBuf(b)
		return false
	}
}

// await waits for a stream's continuation frame, bounded by the idle
// timeout and by the reader's lifetime.
func (c *v2conn) await(st *v2stream) (*wire.Buf, error) {
	select {
	case b := <-st.inbox:
		return b, nil
	default:
	}
	t := time.NewTimer(c.ws.cfg.IdleTimeout)
	defer t.Stop()
	select {
	case b := <-st.inbox:
		return b, nil
	case <-c.readerGone:
		return nil, io.EOF
	case <-t.C:
		return nil, authErrf(CodeInvalidRequest, "", "auth: peer stalled mid-transaction")
	}
}

// runStream executes one transaction. open is the opening frame; its
// payload is the client id.
func (c *v2conn) runStream(ctx context.Context, st *v2stream, open *wire.Buf) {
	id := ClientID(open.B)
	op := open.Op
	wire.PutBuf(open)
	switch op {
	case wire.OpAuthenticate:
		c.streamAuthenticate(ctx, st, id)
	case wire.OpRemap:
		c.streamRemap(ctx, st, id)
	default:
		// Unreachable: readLoop only opens streams for the two opening
		// opcodes. The arm keeps the dispatch total for the repfence.
	}
}

// streamAuthenticate runs one authentication transaction: challenge
// out, response in, verdict out, all on one stream.
func (c *v2conn) streamAuthenticate(ctx context.Context, st *v2stream, id ClientID) {
	ch, err := c.ws.backend.BeginAuth(ctx, id)
	if err != nil {
		c.sendErrV2(st.id, err)
		return
	}
	out := wire.GetBuf()
	out.B = wire.AppendChallenge(out.B[:0], st.id, ch)
	if !c.fw.send(out) {
		return
	}
	b, err := c.await(st)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			c.sendErrV2(st.id, err)
		}
		return
	}
	if b.Op != wire.OpResponse {
		op := b.Op
		wire.PutBuf(b)
		c.sendErrV2(st.id, authErrf(CodeInvalidRequest, id, "expected response, got %q", op))
		return
	}
	var resp crp.Response
	chID, derr := wire.DecodeResponse(b.B, &resp)
	wire.PutBuf(b)
	if derr != nil {
		c.sendErrV2(st.id, authErrf(CodeInvalidRequest, id, "bad response payload: %v", derr))
		return
	}
	av, err := c.ws.backend.FinishAuth(ctx, id, chID, resp)
	if err != nil {
		c.sendErrV2(st.id, err)
		return
	}
	v := wire.Verdict{
		Accepted:     av.Accepted,
		RemapAdvised: av.RemapAdvised,
		HasConfirm:   av.HasConfirm,
		Confirm:      av.Confirm,
	}
	out = wire.GetBuf()
	out.B = wire.AppendVerdict(out.B[:0], st.id, v)
	c.fw.send(out)
}

// streamRemap runs one key-update transaction. The remap challenge
// payload is JSON: the key-update path is cold and the helper-data
// structure is deeply nested.
func (c *v2conn) streamRemap(ctx context.Context, st *v2stream, id ClientID) {
	req, err := c.ws.backend.BeginRemapTx(ctx, id)
	if err != nil {
		c.sendErrV2(st.id, err)
		return
	}
	payload, err := json.Marshal(req)
	if err != nil {
		c.sendErrV2(st.id, authErrf(CodeInternal, id, "encoding remap challenge: %v", err))
		return
	}
	out := wire.GetBuf()
	out.B = wire.AppendRaw(out.B[:0], st.id, wire.OpRemapChallenge, payload)
	if !c.fw.send(out) {
		return
	}
	b, err := c.await(st)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			c.sendErrV2(st.id, err)
		}
		return
	}
	if b.Op != wire.OpRemapDone {
		op := b.Op
		wire.PutBuf(b)
		c.sendErrV2(st.id, authErrf(CodeInvalidRequest, id, "expected remap_done, got %q", op))
		return
	}
	success, derr := wire.DecodeRemapDone(b.B)
	wire.PutBuf(b)
	if derr != nil {
		c.sendErrV2(st.id, authErrf(CodeInvalidRequest, id, "bad remap_done payload: %v", derr))
		return
	}
	if err := c.ws.backend.FinishRemapTx(ctx, id, success); err != nil {
		c.sendErrV2(st.id, err)
		return
	}
	out = wire.GetBuf()
	out.B = wire.AppendRemapAck(out.B[:0], st.id)
	c.fw.send(out)
}

// sendErrV2 reports a typed failure on one stream.
func (c *v2conn) sendErrV2(stream uint32, err error) {
	b := wire.GetBuf()
	b.B = AppendErrorFrame(b.B[:0], stream, err)
	c.fw.send(b)
}
