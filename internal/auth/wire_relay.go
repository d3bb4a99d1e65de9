package auth

import (
	"context"
	"net"

	"repro/internal/crp"
	"repro/internal/wire"
)

// RelayClient forwards individual transaction halves to a remote
// authd over one pipelined v2 connection. It splits the transaction at
// the operation seam TxBackend defines: BeginAuth brings the challenge
// back to the forwarding node, the device's response goes out through
// Finish. WireClient is these halves with a device answering in
// between. A cluster router holds one RelayClient per peer and
// implements TxBackend with it; concurrent forwarded transactions
// pipeline on the shared connection, each on its own stream.
type RelayClient struct {
	c2 *clientV2
}

// DialRelay connects a relay to a remote authd speaking v2. ctx
// bounds the connection attempt only.
func DialRelay(ctx context.Context, addr string) (*RelayClient, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, authErrf(CodeUnavailable, "", "%w: relay dial %s: %w", ErrUnavailable, addr, err)
	}
	return NewRelayClient(conn)
}

// NewRelayClient wraps an established connection (tests inject fault
// wrappers here), writing the v2 preamble immediately.
func NewRelayClient(conn net.Conn) (*RelayClient, error) {
	c2, err := newClientV2(conn)
	if err != nil {
		return nil, authErrf(CodeUnavailable, "", "%w: relay preamble: %w", ErrUnavailable, err)
	}
	return &RelayClient{c2: c2}, nil
}

// Close releases the connection; in-flight transactions fail with a
// retryable connection-lost error.
func (rc *RelayClient) Close() error { return rc.c2.close() }

// RelayAuthTx is a forwarded authentication transaction between its
// two halves: the remote stream stays open, waiting for the device's
// response. Exactly one of Finish or Abandon must be called.
type RelayAuthTx struct{ clientStream }

// BeginAuth forwards the opening half of an authentication: the
// remote node issues (and journals) the challenge; the returned tx
// carries the device's response back on the same stream.
func (rc *RelayClient) BeginAuth(ctx context.Context, id ClientID) (*crp.Challenge, *RelayAuthTx, error) {
	st, err := rc.c2.openStream(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	out := wire.GetBuf()
	out.B = wire.AppendClientID(out.B[:0], st.id, wire.OpAuthenticate, string(id))
	challenge, err := expectChallenge(st.exchange(ctx, out))
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return challenge, &RelayAuthTx{st}, nil
}

// Finish forwards the device's response and returns the remote
// verdict. The confirmation tag rides the verdict, so the forwarding
// node never holds the session key.
func (tx *RelayAuthTx) Finish(ctx context.Context, challengeID uint64, resp crp.Response) (AuthVerdict, error) {
	defer tx.close()
	out := wire.GetBuf()
	out.B = wire.AppendResponse(out.B[:0], tx.id, challengeID, &resp)
	v, err := expectVerdict(tx.exchange(ctx, out))
	if err != nil {
		return AuthVerdict{}, err
	}
	return AuthVerdict{
		Accepted:     v.Accepted,
		RemapAdvised: v.RemapAdvised,
		HasConfirm:   v.HasConfirm,
		Confirm:      v.Confirm,
	}, nil
}

// Abandon drops a transaction whose second half will never come (the
// device went away). The remote stream times out on its own idle
// deadline; the local stream is released immediately.
func (tx *RelayAuthTx) Abandon() { tx.close() }

// RelayRemapTx is a forwarded key-update transaction between halves.
type RelayRemapTx struct{ clientStream }

// BeginRemap forwards the opening half of a key update.
func (rc *RelayClient) BeginRemap(ctx context.Context, id ClientID) (*RemapRequest, *RelayRemapTx, error) {
	st, err := rc.c2.openStream(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	out := wire.GetBuf()
	out.B = wire.AppendClientID(out.B[:0], st.id, wire.OpRemap, string(id))
	req, err := expectRemapChallenge(st.exchange(ctx, out))
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return req, &RelayRemapTx{st}, nil
}

// Finish forwards the device's key-derivation outcome and waits for
// the remote ack.
func (tx *RelayRemapTx) Finish(ctx context.Context, success bool) error {
	defer tx.close()
	out := wire.GetBuf()
	out.B = wire.AppendRemapDone(out.B[:0], tx.id, success)
	return expectRemapAck(tx.exchange(ctx, out))
}

// Abandon drops a forwarded key update mid-transaction.
func (tx *RelayRemapTx) Abandon() { tx.close() }
