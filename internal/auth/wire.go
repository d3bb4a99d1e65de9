package auth

import (
	"bufio"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Wire hardening defaults. A malicious peer must not be able to pin
// server memory or goroutines: frames are size-capped, a connection's
// concurrently open streams are capped (which bounds its memory, not
// how many transactions it runs over its lifetime), and a peer that
// goes silent mid-transaction is cut off by the idle deadline.
// Operators tune these through WireConfig; the zero config keeps
// these values.
const (
	// defaultMaxWireMessageBytes bounds one frame payload. The largest
	// legitimate payload is a remap challenge (~640 pair bits plus
	// helper data), far under this cap.
	defaultMaxWireMessageBytes = 1 << 20
	// defaultWireIdleTimeout cuts off peers that stall mid-transaction.
	defaultWireIdleTimeout = 30 * time.Second
	// defaultMaxStreamsPerConn bounds concurrently open streams on one
	// connection (the per-connection pipelining depth the server will
	// serve).
	defaultMaxStreamsPerConn = 64
	// refuseTimeout bounds the whole exchange with a connection turned
	// away at the connection cap.
	refuseTimeout = time.Second
)

// WireConfig tunes a WireServer's hardening limits and overload
// behaviour. The zero value means "current defaults, no load
// shedding", so existing callers and tests keep today's semantics.
type WireConfig struct {
	// MaxMessageBytes caps one frame payload. 0 means 1 MiB.
	MaxMessageBytes int
	// IdleTimeout cuts off peers that stall mid-transaction. 0 means
	// 30 s.
	IdleTimeout time.Duration
	// MaxInFlight caps concurrently executing transactions across all
	// connections. When the cap is reached the server answers new
	// transactions with an unavailable error instead of queueing them
	// behind a saturated store — clients back off and retry. 0
	// disables shedding.
	MaxInFlight int
	// MaxConns caps concurrently accepted connections. A connection
	// over the cap receives one unavailable error frame on stream 0
	// and is closed (accept-queue pressure relief). 0 disables the
	// cap.
	MaxConns int
	// MaxStreamsPerConn caps concurrently open streams per connection;
	// a stream over the cap is shed with an unavailable error on that
	// stream while the connection stays healthy. 0 means 64.
	MaxStreamsPerConn int
}

// withDefaults fills the zero fields with the documented defaults.
func (c WireConfig) withDefaults() WireConfig {
	if c.MaxMessageBytes == 0 {
		c.MaxMessageBytes = defaultMaxWireMessageBytes
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = defaultWireIdleTimeout
	}
	if c.MaxStreamsPerConn == 0 {
		c.MaxStreamsPerConn = defaultMaxStreamsPerConn
	}
	return c
}

// Validate rejects nonsensical limits (negative caps or timeout).
func (c WireConfig) Validate() error {
	if c.MaxMessageBytes < 0 || c.IdleTimeout < 0 || c.MaxInFlight < 0 ||
		c.MaxConns < 0 || c.MaxStreamsPerConn < 0 {
		return authErrf(CodeInvalidRequest, "", "auth: wire config limits must be non-negative: %+v", c)
	}
	return nil
}

// The TCP transport is the binary framing of internal/wire: a
// connection opens with the 4-byte preamble and then carries frames,
// each tagged with a stream id. A transaction owns one stream:
//
//	authenticate:  C→S authenticate(client_id)
//	               S→C challenge | error
//	               C→S response(challenge_id, bits)
//	               S→C verdict(accepted, remap_advised, confirm) | error
//	remap:         C→S remap(client_id)
//	               S→C remap_challenge(JSON request) | error
//	               C→S remap_done(success)
//	               S→C remap_ack | error
//
// Error frames carry the structured taxonomy alongside the text (the
// stable ErrorCode and the client the failure concerned), so
// WireClient rebuilds the same typed *AuthError an in-process caller
// would get (errors.Is against the package sentinels holds on both
// sides of the wire). docs/PROTOCOL.md is the normative description.
//
// The paper has the server initiate remaps; over a client-polled TCP
// transport the client asks on the server's behalf, which changes no
// security property (the server still controls the reserved-voltage
// challenge and the helper data).

// WireServer exposes a transaction backend — usually an in-process
// Server, in a cluster possibly a forwarding router — over TCP.
type WireServer struct {
	backend TxBackend
	cfg     WireConfig
	// inflight is the transaction-shedding semaphore (nil when
	// MaxInFlight is 0): a slot is held for the duration of one
	// transaction, and a transaction that cannot take a slot without
	// blocking is answered with unavailable.
	inflight chan struct{}

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewWireServer wraps an authentication server with the default
// hardening limits and no load shedding.
func NewWireServer(auth *Server) *WireServer {
	ws, err := NewWireServerConfig(auth, WireConfig{})
	if err != nil {
		// The zero config always validates.
		panic(err)
	}
	return ws
}

// NewWireServerConfig wraps an authentication server with explicit
// wire limits and overload behaviour.
func NewWireServerConfig(auth *Server, cfg WireConfig) (*WireServer, error) {
	return NewWireServerBackend(localBackend{auth: auth}, cfg)
}

// NewWireServerBackend wraps an arbitrary transaction backend (a
// cluster router, a follower's delegating issuer) with the same wire
// front end a plain Server gets: hardening limits and overload
// shedding all apply unchanged.
func NewWireServerBackend(backend TxBackend, cfg WireConfig) (*WireServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws := &WireServer{backend: backend, cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
	if ws.cfg.MaxInFlight > 0 {
		ws.inflight = make(chan struct{}, ws.cfg.MaxInFlight)
	}
	return ws, nil
}

// Serve accepts connections on l until Close is called or ctx is
// cancelled, then returns nil. ctx also bounds every authentication
// operation run on behalf of connected peers.
func (ws *WireServer) Serve(ctx context.Context, l net.Listener) error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		return authErrf(CodeInvalidRequest, "", "auth: server closed")
	}
	ws.listener = l
	ws.mu.Unlock()
	// Cancelling ctx unblocks Accept by closing the listener.
	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()
	for {
		conn, err := l.Accept()
		if err != nil {
			ws.mu.Lock()
			closed := ws.closed
			ws.mu.Unlock()
			if closed || ctx.Err() != nil {
				return nil
			}
			return err
		}
		ws.mu.Lock()
		over := ws.cfg.MaxConns > 0 && len(ws.conns) >= ws.cfg.MaxConns
		if !over {
			ws.conns[conn] = struct{}{}
		}
		ws.mu.Unlock()
		ws.wg.Add(1)
		if over {
			// Accept-queue pressure: tell the peer to back off, off the
			// accept loop and deadline-bounded so a dead peer cannot
			// stall it.
			go func() {
				defer ws.wg.Done()
				defer conn.Close()
				ws.refuse(conn)
			}()
			continue
		}
		go func() {
			defer ws.wg.Done()
			defer func() {
				conn.Close()
				ws.mu.Lock()
				delete(ws.conns, conn)
				ws.mu.Unlock()
			}()
			ws.handle(ctx, conn)
		}()
	}
}

// refuse turns away a connection over the MaxConns cap with one
// retryable unavailable error frame on stream 0, which no client ever
// opens. It reads the preamble first and drains the peer's frames
// until the peer hangs up: closing with unread input would reset the
// connection and could destroy the error frame before the client
// reads it.
func (ws *WireServer) refuse(conn net.Conn) {
	if err := conn.SetDeadline(time.Now().Add(refuseTimeout)); err != nil {
		return
	}
	if !readPreamble(conn) {
		return
	}
	frame := AppendErrorFrame(nil, 0, authErrf(CodeUnavailable, "",
		"%w: connection cap %d reached", ErrUnavailable, ws.cfg.MaxConns))
	if _, err := conn.Write(frame); err != nil {
		return
	}
	// Best-effort: the drain ends at the peer's hang-up or the
	// deadline, and the connection is closed either way.
	_, _ = io.Copy(io.Discard, conn)
}

// Close stops the listener and tears down open connections.
func (ws *WireServer) Close() {
	ws.mu.Lock()
	ws.closed = true
	if ws.listener != nil {
		ws.listener.Close()
	}
	for c := range ws.conns {
		c.Close()
	}
	ws.mu.Unlock()
	ws.wg.Wait()
}

// acquire takes an in-flight transaction slot without blocking. It
// returns a release func, or nil when the server is at capacity and
// the transaction must be shed.
func (ws *WireServer) acquire() func() {
	if ws.inflight == nil {
		return func() {}
	}
	select {
	case ws.inflight <- struct{}{}:
		//lint:ignore goroleak semaphore release: the paired send above deposited a token, so this receive can never block
		return func() { <-ws.inflight }
	default:
		return nil
	}
}

// readPreamble consumes the connection's opening bytes and reports
// whether they are the preamble. Anything else — a JSON line from a
// retired newline-JSON client, a torn or garbage preamble — has no
// framing it could be answered in, so callers hang up without a reply.
func readPreamble(r io.Reader) bool {
	var got [wire.PreambleLen]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return false
	}
	return got == wire.Preamble()
}

// handle checks the preamble and runs the connection's stream
// demultiplexer to completion.
func (ws *WireServer) handle(ctx context.Context, conn net.Conn) {
	if err := conn.SetReadDeadline(time.Now().Add(ws.cfg.IdleTimeout)); err != nil {
		return
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	if !readPreamble(br) {
		return
	}
	ws.serveStreams(ctx, conn, br)
}

// AppendErrorFrame appends the error frame reporting err on stream:
// the stable code, the client it concerned, and the cause text. The
// receiver rebuilds the same *AuthError from its payload
// (DecodeErrorFrame). The client port and the replication port both
// use this pair.
func AppendErrorFrame(dst []byte, stream uint32, err error) []byte {
	client := ""
	msg := err.Error()
	var ae *AuthError
	if errors.As(err, &ae) {
		client = string(ae.ClientID)
		if ae.Err != nil {
			// Send the cause text: the receiving side re-wraps it in
			// an AuthError, which re-attaches the structured suffix.
			msg = ae.Err.Error()
		}
	}
	return wire.AppendError(dst, stream, string(CodeOf(err)), client, msg)
}

// DecodeErrorFrame rebuilds the typed error an error frame's payload
// carries, so errors.Is against the package sentinels holds as it
// does in-process. derr reports a malformed payload, which each
// caller classifies for its own port.
func DecodeErrorFrame(payload []byte) (remote, derr error) {
	code, client, msg, derr := wire.DecodeError(payload)
	if derr != nil {
		return nil, derr
	}
	return errorFromWire(ErrorCode(code), ClientID(client), msg), nil
}

// WireClient is the client side of the TCP transport: a RelayClient's
// two transaction halves with the device answering in between. It is
// safe for concurrent use: each transaction runs on its own stream of
// the one connection, so concurrent callers pipeline.
type WireClient struct {
	rc RelayClient
}

// Dial connects to a WireServer. ctx bounds the connection attempt
// only; pass a context to each transaction to bound the transaction.
func Dial(ctx context.Context, addr string) (*WireClient, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewWireClient(conn)
}

// NewWireClient wraps an already-established connection (fault
// injection wraps conns here), writing the preamble immediately; Dial
// is the production path.
func NewWireClient(conn net.Conn) (*WireClient, error) {
	c, err := newClientV2(conn)
	if err != nil {
		return nil, err
	}
	return &WireClient{rc: RelayClient{c2: c}}, nil
}

// NewWireClientV2 is NewWireClient.
//
// Deprecated: there is one framing; use NewWireClient.
func NewWireClientV2(conn net.Conn) (*WireClient, error) { return NewWireClient(conn) }

// Close releases the connection.
func (wc *WireClient) Close() error { return wc.rc.Close() }

// confirmTag derives the non-secret key-confirmation value a verdict
// carries: HMAC(sessionKey, "confirm").
func confirmTag(sessionKey [32]byte) [32]byte {
	mac := hmac.New(sha256.New, sessionKey[:])
	mac.Write([]byte("authenticache/session/confirm"))
	var tag [32]byte
	mac.Sum(tag[:0])
	return tag
}

// Authenticate runs one full authentication transaction for the
// responder and returns the server's verdict.
func (wc *WireClient) Authenticate(ctx context.Context, r *Responder) (bool, error) {
	ok, _, err := wc.AuthenticateSession(ctx, r)
	return ok, err
}

// AuthenticateSession authenticates and, on acceptance, returns the
// established per-transaction session key. The server's verdict
// carries a key-confirmation tag; a verdict whose tag does not match
// the locally derived key is treated as a protocol failure (a
// tampering or desynchronisation signal).
func (wc *WireClient) AuthenticateSession(ctx context.Context, r *Responder) (bool, [32]byte, error) {
	var zero [32]byte
	challenge, tx, err := wc.rc.BeginAuth(ctx, r.ID)
	if err != nil {
		return false, zero, err
	}
	resp, err := r.Respond(challenge)
	if err != nil {
		tx.Abandon()
		return false, zero, err
	}
	v, err := tx.Finish(ctx, challenge.ID, resp)
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
		if err := wc.Remap(ctx, r); err != nil {
			return true, sessionKey, fmt.Errorf("auth: advised remap failed: %w", err)
		}
	}
	return true, sessionKey, nil
}

// Remap runs one key-update transaction, rotating the responder's key
// on success.
func (wc *WireClient) Remap(ctx context.Context, r *Responder) error {
	req, tx, err := wc.rc.BeginRemap(ctx, r.ID)
	if err != nil {
		return err
	}
	success := r.HandleRemap(req) == nil
	if err := tx.Finish(ctx, success); err != nil {
		return err
	}
	if !success {
		return authErrf(CodeInternal, "", "auth: client failed to derive the new key")
	}
	return nil
}
