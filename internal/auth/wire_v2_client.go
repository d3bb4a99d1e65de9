package auth

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/crp"
	"repro/internal/wire"
)

// clientV2 is the pipelining client engine behind WireClient and
// RelayClient: many transactions share one connection, each on its
// own stream. A reader goroutine routes incoming frames to
// per-stream channels; a frameWriter goroutine coalesces outgoing
// frames. Concurrent callers are supported — that concurrency IS the
// pipelining.
type clientV2 struct {
	conn net.Conn
	fw   *frameWriter
	// readerExited is closed when the read loop returns.
	readerExited chan struct{}

	mu      sync.Mutex
	streams map[uint32]chan *wire.Buf
	nextID  uint32
	// rerr is the first read-loop failure; transactions report it as
	// their connection-lost cause.
	rerr error
}

// newClientV2 wraps an established connection, writes the preamble,
// and starts the reader and writer goroutines.
func newClientV2(conn net.Conn) (*clientV2, error) {
	pre := wire.Preamble()
	if _, err := conn.Write(pre[:]); err != nil {
		conn.Close()
		return nil, err
	}
	c := &clientV2{
		conn:         conn,
		fw:           newFrameWriter(conn, defaultWireIdleTimeout),
		readerExited: make(chan struct{}),
		streams:      make(map[uint32]chan *wire.Buf),
		nextID:       1,
	}
	go c.fw.loop()
	go c.readLoop()
	return c, nil
}

// close releases the connection and stops both goroutines.
func (c *clientV2) close() error {
	err := c.conn.Close()
	c.fw.stop()
	<-c.readerExited
	return err
}

// readLoop routes incoming frames to their streams until the
// connection dies. Frames for abandoned streams (a caller's context
// expired mid-transaction) are dropped; the connection stays usable.
func (c *clientV2) readLoop() {
	defer close(c.readerExited)
	br := bufio.NewReaderSize(c.conn, 32<<10)
	for {
		b := wire.GetBuf()
		if err := wire.ReadFrameInto(br, b, defaultMaxWireMessageBytes); err != nil {
			wire.PutBuf(b)
			c.readFailed(err)
			return
		}
		if b.Stream == 0 && b.Op == wire.OpError {
			// No client opens stream 0: an error there is the server
			// refusing the whole connection (its connection cap). The
			// server hangs up next, so io.EOF joins the chain and a
			// ResilientClient redials instead of reusing this
			// connection.
			err := frameErr(b)
			wire.PutBuf(b)
			c.readFailed(fmt.Errorf("%w: %w", err, io.EOF))
			return
		}
		c.mu.Lock()
		ch := c.streams[b.Stream]
		c.mu.Unlock()
		if ch == nil {
			wire.PutBuf(b)
			continue
		}
		select {
		case ch <- b:
		default:
			// A server pushing more than the lock-step window on one
			// stream; drop rather than block the demultiplexer.
			wire.PutBuf(b)
		}
	}
}

// readFailed records the failure and wakes every waiting transaction
// through the writer's done channel.
func (c *clientV2) readFailed(err error) {
	c.mu.Lock()
	if c.rerr == nil {
		c.rerr = err
	}
	c.mu.Unlock()
	c.fw.stop()
}

// openStream allocates a stream id and its delivery channel.
func (c *clientV2) openStream() (uint32, chan *wire.Buf, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rerr != nil {
		return 0, nil, connLostErr(c.rerr)
	}
	id := c.nextID
	c.nextID++
	ch := make(chan *wire.Buf, 2)
	c.streams[id] = ch
	return id, ch, nil
}

// closeStream abandons a stream and drops any frame already routed
// to it.
func (c *clientV2) closeStream(id uint32) {
	c.mu.Lock()
	ch := c.streams[id]
	delete(c.streams, id)
	c.mu.Unlock()
	if ch == nil {
		return
	}
	for {
		select {
		case b := <-ch:
			wire.PutBuf(b)
		default:
			return
		}
	}
}

// recv waits for the next frame on a stream, honouring the caller's
// context and connection loss. On context expiry the stream is
// abandoned (the reader drops its late frames) and the connection
// stays healthy for other streams.
func (c *clientV2) recv(ctx context.Context, ch chan *wire.Buf) (*wire.Buf, error) {
	select {
	case b := <-ch:
		return b, nil
	default:
	}
	select {
	case b := <-ch:
		return b, nil
	case <-ctx.Done():
		return nil, &AuthError{Code: CodeCanceled, Err: ctx.Err()}
	case <-c.fw.done:
		return nil, c.connLost()
	}
}

// connLost reports the recorded reader failure: a clean server close
// becomes a retryable unavailable with io.EOF in the chain
// (ResilientClient redials on it), a refusal on stream 0 keeps the
// server's typed error, and any other transport fault is returned
// raw.
func (c *clientV2) connLost() error {
	c.mu.Lock()
	err := c.rerr
	c.mu.Unlock()
	return connLostErr(err)
}

func connLostErr(err error) error {
	var ae *AuthError
	if errors.As(err, &ae) {
		return err
	}
	if err == nil || errors.Is(err, io.EOF) {
		return authErrf(CodeUnavailable, "", "%w: server closed connection: %w", ErrUnavailable, io.EOF)
	}
	return err
}

// frameErr converts an error frame into the typed *AuthError the
// server sent.
func frameErr(b *wire.Buf) error {
	code, client, msg, derr := wire.DecodeError(b.B)
	if derr != nil {
		return authErrf(CodeInvalidRequest, "", "auth: bad error frame: %v", derr)
	}
	return errorFromWire(ErrorCode(code), ClientID(client), msg)
}

// authenticateSession runs one pipelined authentication transaction.
func (c *clientV2) authenticateSession(ctx context.Context, r *Responder) (bool, [32]byte, error) {
	var zero [32]byte
	if err := ctxErr(ctx, ""); err != nil {
		return false, zero, err
	}
	id, ch, err := c.openStream()
	if err != nil {
		return false, zero, err
	}
	defer c.closeStream(id)
	out := wire.GetBuf()
	out.B = wire.AppendClientID(out.B[:0], id, wire.OpAuthenticate, string(r.ID))
	if !c.fw.send(out) {
		return false, zero, c.connLost()
	}
	b, err := c.recv(ctx, ch)
	if err != nil {
		return false, zero, err
	}
	challenge, err := expectChallenge(b)
	if err != nil {
		return false, zero, err
	}
	resp, err := r.Respond(challenge)
	if err != nil {
		return false, zero, err
	}
	out = wire.GetBuf()
	out.B = wire.AppendResponse(out.B[:0], id, challenge.ID, &resp)
	if !c.fw.send(out) {
		return false, zero, c.connLost()
	}
	vb, err := c.recv(ctx, ch)
	if err != nil {
		return false, zero, err
	}
	v, err := expectVerdict(vb)
	if err != nil {
		return false, zero, err
	}
	if !v.Accepted {
		return false, zero, nil
	}
	sessionKey := r.SessionKey(challenge)
	if !v.HasConfirm || v.Confirm != confirmTag(sessionKey) {
		return false, zero, authErrf(CodeInvalidRequest, "", "auth: session key confirmation mismatch")
	}
	if v.RemapAdvised {
		// The server says the CRP budget under this key is spent;
		// rotate immediately, on a fresh stream of this connection, so
		// the next authentication uses a fresh logical map.
		if err := c.remap(ctx, r); err != nil {
			return true, sessionKey, fmt.Errorf("auth: advised remap failed: %w", err)
		}
	}
	return true, sessionKey, nil
}

// remap runs one pipelined key-update transaction.
func (c *clientV2) remap(ctx context.Context, r *Responder) error {
	if err := ctxErr(ctx, ""); err != nil {
		return err
	}
	id, ch, err := c.openStream()
	if err != nil {
		return err
	}
	defer c.closeStream(id)
	out := wire.GetBuf()
	out.B = wire.AppendClientID(out.B[:0], id, wire.OpRemap, string(r.ID))
	if !c.fw.send(out) {
		return c.connLost()
	}
	b, err := c.recv(ctx, ch)
	if err != nil {
		return err
	}
	req, err := expectRemapChallenge(b)
	if err != nil {
		return err
	}
	success := r.HandleRemap(req) == nil
	out = wire.GetBuf()
	out.B = wire.AppendRemapDone(out.B[:0], id, success)
	if !c.fw.send(out) {
		return c.connLost()
	}
	ack, err := c.recv(ctx, ch)
	if err != nil {
		return err
	}
	if err := expectRemapAck(ack); err != nil {
		return err
	}
	if !success {
		return authErrf(CodeInternal, "", "auth: client failed to derive the new key")
	}
	return nil
}

// expectChallenge decodes a challenge frame, passing error frames
// through as typed errors. It consumes b.
func expectChallenge(b *wire.Buf) (*crp.Challenge, error) {
	defer wire.PutBuf(b)
	switch b.Op {
	case wire.OpError:
		return nil, frameErr(b)
	case wire.OpChallenge:
		ch := new(crp.Challenge)
		if err := wire.DecodeChallenge(b.B, ch); err != nil {
			return nil, authErrf(CodeInvalidRequest, "", "auth: bad challenge payload: %v", err)
		}
		return ch, nil
	}
	return nil, authErrf(CodeInvalidRequest, "", "auth: expected challenge, got %q", b.Op)
}

// expectVerdict decodes a verdict frame; error semantics as
// expectChallenge. It consumes b.
func expectVerdict(b *wire.Buf) (wire.Verdict, error) {
	defer wire.PutBuf(b)
	switch b.Op {
	case wire.OpError:
		return wire.Verdict{}, frameErr(b)
	case wire.OpVerdict:
		v, err := wire.DecodeVerdict(b.B)
		if err != nil {
			return wire.Verdict{}, authErrf(CodeInvalidRequest, "", "auth: bad verdict payload: %v", err)
		}
		return v, nil
	}
	return wire.Verdict{}, authErrf(CodeInvalidRequest, "", "auth: expected verdict, got %q", b.Op)
}

// expectRemapChallenge decodes the JSON remap-challenge payload; it
// consumes b.
func expectRemapChallenge(b *wire.Buf) (*RemapRequest, error) {
	defer wire.PutBuf(b)
	switch b.Op {
	case wire.OpError:
		return nil, frameErr(b)
	case wire.OpRemapChallenge:
		req := new(RemapRequest)
		if err := json.Unmarshal(b.B, req); err != nil {
			return nil, authErrf(CodeInvalidRequest, "", "auth: bad remap challenge payload: %v", err)
		}
		return req, nil
	}
	return nil, authErrf(CodeInvalidRequest, "", "auth: expected remap_challenge, got %q", b.Op)
}

// expectRemapAck consumes b, accepting only a remap_ack frame.
func expectRemapAck(b *wire.Buf) error {
	defer wire.PutBuf(b)
	switch b.Op {
	case wire.OpError:
		return frameErr(b)
	case wire.OpRemapAck:
		return nil
	}
	return authErrf(CodeInvalidRequest, "", "auth: expected remap_ack, got %q", b.Op)
}
