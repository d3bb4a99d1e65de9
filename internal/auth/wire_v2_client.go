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

// clientV2 is the pipelining client engine behind RelayClient (and so
// WireClient): many transactions share one connection, each on its
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

// clientStream is one transaction's stream on a clientV2 connection.
type clientStream struct {
	c  *clientV2
	id uint32
	ch chan *wire.Buf
}

// openStream allocates a stream and its delivery channel for a
// transaction concerning client id (empty for a probe), failing fast
// on a finished context or a lost connection.
func (c *clientV2) openStream(ctx context.Context, id ClientID) (clientStream, error) {
	if err := ctxErr(ctx, id); err != nil {
		return clientStream{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rerr != nil {
		return clientStream{}, connLostErr(c.rerr)
	}
	st := clientStream{c: c, id: c.nextID, ch: make(chan *wire.Buf, 2)}
	c.nextID++
	if c.nextID == 0 {
		// A connection has no transaction budget, so its ids can wrap;
		// stream 0 carries only the server's connection refusal.
		c.nextID = 1
	}
	c.streams[st.id] = st.ch
	return st, nil
}

// exchange is the round trip of every transaction half: send out, a
// frame on the stream, and wait for the stream's next frame.
func (st *clientStream) exchange(ctx context.Context, out *wire.Buf) (*wire.Buf, error) {
	if !st.c.fw.send(out) {
		return nil, st.c.connLost()
	}
	return st.c.recv(ctx, st.ch)
}

// close abandons the stream and drops any frame already routed to it.
func (st *clientStream) close() {
	c := st.c
	c.mu.Lock()
	delete(c.streams, st.id)
	c.mu.Unlock()
	for {
		select {
		case b := <-st.ch:
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
	remote, derr := DecodeErrorFrame(b.B)
	if derr != nil {
		return authErrf(CodeInvalidRequest, "", "auth: bad error frame: %v", derr)
	}
	return remote
}

// expectChallenge decodes the reply of an exchange as a challenge
// frame, passing the exchange's error and error frames through as
// typed errors. It consumes b.
func expectChallenge(b *wire.Buf, err error) (*crp.Challenge, error) {
	if err != nil {
		return nil, err
	}
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
func expectVerdict(b *wire.Buf, err error) (wire.Verdict, error) {
	if err != nil {
		return wire.Verdict{}, err
	}
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

// expectRemapChallenge decodes the JSON remap-challenge payload; error
// semantics as expectChallenge. It consumes b.
func expectRemapChallenge(b *wire.Buf, err error) (*RemapRequest, error) {
	if err != nil {
		return nil, err
	}
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

// expectRemapAck consumes b, accepting only a remap_ack frame; error
// semantics as expectChallenge.
func expectRemapAck(b *wire.Buf, err error) error {
	if err != nil {
		return err
	}
	defer wire.PutBuf(b)
	switch b.Op {
	case wire.OpError:
		return frameErr(b)
	case wire.OpRemapAck:
		return nil
	}
	return authErrf(CodeInvalidRequest, "", "auth: expected remap_ack, got %q", b.Op)
}
