package auth

import (
	"context"

	"repro/internal/crp"
)

// TxBackend is the operation-level seam between the wire transport
// and whatever executes transactions. The single-node server plugs in
// directly via localBackend; a cluster router implements the same
// four operations by consistent-hashing the client id and forwarding
// to the owning node. The seam sits at the operation level —
// challenge out, response in — so a forwarder never needs the session
// key: the verdict carries the derived confirmation tag instead.
type TxBackend interface {
	// BeginAuth issues a challenge for one authentication transaction.
	BeginAuth(ctx context.Context, id ClientID) (*crp.Challenge, error)
	// FinishAuth verifies the response to a challenge issued by
	// BeginAuth and returns the verdict.
	FinishAuth(ctx context.Context, id ClientID, challengeID uint64, resp crp.Response) (AuthVerdict, error)
	// BeginRemapTx starts one key-update transaction.
	BeginRemapTx(ctx context.Context, id ClientID) (*RemapRequest, error)
	// FinishRemapTx completes the key-update begun by BeginRemapTx.
	FinishRemapTx(ctx context.Context, id ClientID, success bool) error
}

// AuthVerdict is a transport-neutral authentication outcome: what the
// wire verdict frame carries, independent of framing. Confirm is
// HMAC(sessionKey, confirm label) — the session key itself never
// leaves the node that verified.
type AuthVerdict struct {
	Accepted     bool
	RemapAdvised bool
	// HasConfirm distinguishes an absent tag from a zero tag.
	HasConfirm bool
	Confirm    [32]byte
}

// LocalBackend returns the TxBackend that executes transactions
// directly against srv — the same backend a WireServer built from a
// *Server uses. Exported so a cluster node can serve its primary role
// (or verify follower-held challenges) through the seam.
func LocalBackend(srv *Server) TxBackend { return localBackend{auth: srv} }

// localBackend runs transactions against an in-process Server; the
// default backend of every WireServer built around a *Server.
type localBackend struct {
	auth *Server
}

func (lb localBackend) BeginAuth(ctx context.Context, id ClientID) (*crp.Challenge, error) {
	return lb.auth.IssueChallenge(ctx, id)
}

func (lb localBackend) FinishAuth(ctx context.Context, id ClientID, challengeID uint64, resp crp.Response) (AuthVerdict, error) {
	ok, sessionKey, err := lb.auth.VerifySession(ctx, id, challengeID, resp)
	if err != nil {
		return AuthVerdict{}, err
	}
	v := AuthVerdict{Accepted: ok}
	if ok {
		v.HasConfirm = true
		v.Confirm = confirmTag(sessionKey)
		v.RemapAdvised = lb.auth.NeedsRemap(id)
	}
	return v, nil
}

func (lb localBackend) BeginRemapTx(ctx context.Context, id ClientID) (*RemapRequest, error) {
	return lb.auth.BeginRemap(ctx, id)
}

func (lb localBackend) FinishRemapTx(ctx context.Context, id ClientID, success bool) error {
	return lb.auth.CompleteRemap(ctx, id, success)
}
