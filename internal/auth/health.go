package auth

import (
	"context"
	"time"

	"repro/internal/wire"
)

// Health probing: the failure-detection half of the cluster's
// resilience control plane lives behind two small seams here. On the
// serving side, a backend that can describe its replication state
// implements HealthReporter and the v2 demultiplexer answers probe
// frames from it inline. On the probing side, RelayClient.Probe runs
// one probe/health exchange on the pooled relay connection — so a
// probe doubles as a liveness check of the exact connection forwarded
// transactions will use.

// PeerHealth is a node's replication health as reported to a probe,
// transport-neutral (the wire.Health frame carries the same fields).
type PeerHealth struct {
	// Primary reports whether the node currently holds the primary
	// role.
	Primary bool
	// Term is the node's current primary term.
	Term uint64
	// CommitSeq is the highest committed sequence the node knows of:
	// its own on a primary, the primary's last advertised commit on a
	// follower.
	CommitSeq uint64
	// AppliedSeq is the last sequence applied to the local replica.
	AppliedSeq uint64
}

// Staleness is how many records the node's replica trails the commit
// frontier it knows of.
func (h PeerHealth) Staleness() uint64 {
	if h.CommitSeq > h.AppliedSeq {
		return h.CommitSeq - h.AppliedSeq
	}
	return 0
}

// HealthReporter is the optional TxBackend extension a wire server
// answers probes from. A backend without it — the plain single-node
// localBackend — is reported as a primary at term 0 with zero
// sequences: always fresh, because there is no replica to trail.
type HealthReporter interface {
	Health() PeerHealth
}

// healthReport answers one probe from the server's backend.
func (ws *WireServer) healthReport() wire.Health {
	hr, ok := ws.backend.(HealthReporter)
	if !ok {
		return wire.Health{Role: wire.HealthRolePrimary}
	}
	h := hr.Health()
	role := wire.HealthRoleFollower
	if h.Primary {
		role = wire.HealthRolePrimary
	}
	return wire.Health{
		Role:       role,
		Term:       h.Term,
		CommitSeq:  h.CommitSeq,
		AppliedSeq: h.AppliedSeq,
	}
}

// Probe runs one probe/health exchange and reports the peer's health
// plus the measured round trip. It rides the relay's pooled
// connection on its own stream, so the RTT covers the same socket
// forwarded transactions use, and a hung or dead peer fails the probe
// exactly as it would fail a forward. ctx bounds the wait.
func (rc *RelayClient) Probe(ctx context.Context) (PeerHealth, time.Duration, error) {
	st, err := rc.c2.openStream(ctx, "")
	if err != nil {
		return PeerHealth{}, 0, err
	}
	defer st.close()
	start := time.Now()
	out := wire.GetBuf()
	out.B = wire.AppendProbe(out.B[:0], st.id)
	h, err := expectHealth(st.exchange(ctx, out))
	if err != nil {
		return PeerHealth{}, 0, err
	}
	return h, time.Since(start), nil
}

// expectHealth decodes a health frame; error semantics as
// expectChallenge. It consumes b.
func expectHealth(b *wire.Buf, err error) (PeerHealth, error) {
	if err != nil {
		return PeerHealth{}, err
	}
	defer wire.PutBuf(b)
	switch b.Op {
	case wire.OpError:
		return PeerHealth{}, frameErr(b)
	case wire.OpHealth:
		h, err := wire.DecodeHealth(b.B)
		if err != nil {
			return PeerHealth{}, authErrf(CodeInvalidRequest, "", "auth: bad health payload: %v", err)
		}
		return PeerHealth{
			Primary:    h.Role == wire.HealthRolePrimary,
			Term:       h.Term,
			CommitSeq:  h.CommitSeq,
			AppliedSeq: h.AppliedSeq,
		}, nil
	}
	return PeerHealth{}, authErrf(CodeInvalidRequest, "", "auth: expected health, got %q", b.Op)
}
