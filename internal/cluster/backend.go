package cluster

import (
	"context"
	"errors"
	"sync"

	"repro/internal/auth"
	"repro/internal/crp"
)

// errInvalidNoRemap answers a remap completion with no begun half.
var errInvalidNoRemap = errors.New("cluster: no key-update transaction in flight")

// errInvalidNoAuthTx answers an auth completion with no begun half.
var errInvalidNoAuthTx = errors.New("cluster: no authentication transaction in flight")

// nodeBackend is the TxBackend a cluster node serves clients through.
// On the primary it is the plain local backend. On a follower it
// read-scales: challenge issuance runs the delegation protocol (sample
// locally against the replica, ask the primary to burn, install the
// granted challenge locally) and verification runs entirely locally;
// only key updates — rare, write-heavy — forward whole to the primary
// over a relay connection.
type nodeBackend struct {
	n *Node

	mu     sync.Mutex
	remaps map[auth.ClientID]*auth.RelayRemapTx
}

// proposeAttempts bounds delegated-issuance retries when a proposal
// loses a race (pair consumed concurrently, key rotated mid-flight).
const proposeAttempts = 4

// BeginAuth issues a challenge: directly when primary, by delegation
// when follower. A follower beyond the staleness bound refuses before
// sampling — this is the authoritative stale-read guard: a hedged
// read a router sends here on optimistic (or absent) health data is
// turned away with a retryable unavailable rather than served off a
// replica too far behind the commit frontier.
func (b *nodeBackend) BeginAuth(ctx context.Context, id auth.ClientID) (*crp.Challenge, error) {
	n := b.n
	if n.isPrimary() {
		return n.srv.IssueChallenge(ctx, id)
	}
	if err := n.checkStaleness(id); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < proposeAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, &auth.AuthError{Code: auth.CodeUnavailable, ClientID: id, Err: err}
		}
		prop, err := n.srv.SampleChallenge(ctx, id)
		if err != nil {
			return nil, err
		}
		lnk := n.currentLink()
		if lnk == nil {
			if n.isPrimary() {
				// Promoted mid-call: issue directly.
				return n.srv.IssueChallenge(ctx, id)
			}
			return nil, unavailErrf(string(id), "no primary link")
		}
		chID, err := lnk.propose(ctx, id, prop)
		if err != nil {
			if auth.CodeOf(err) == auth.CodeInvalidRequest {
				// Lost a race on the primary (pair burned or key rotated
				// since the sample): resample against the fresher replica.
				lastErr = err
				continue
			}
			return nil, err
		}
		ch, err := n.srv.CommitDelegated(ctx, id, chID, prop)
		if err != nil {
			if auth.CodeOf(err) == auth.CodeInvalidRequest {
				lastErr = err
				continue
			}
			return nil, err
		}
		return ch, nil
	}
	return nil, lastErr
}

// FinishAuth verifies locally on every role: followers hold the
// pending challenge CommitDelegated installed, primaries the one
// IssueChallenge did.
func (b *nodeBackend) FinishAuth(ctx context.Context, id auth.ClientID, challengeID uint64, resp crp.Response) (auth.AuthVerdict, error) {
	return b.n.localBE.FinishAuth(ctx, id, challengeID, resp)
}

// BeginRemapTx starts a key update: locally when primary, forwarded
// whole to the primary when follower (key updates mutate the key and
// burn reserved pairs — there is no read-scaled half).
func (b *nodeBackend) BeginRemapTx(ctx context.Context, id auth.ClientID) (*auth.RemapRequest, error) {
	n := b.n
	if n.isPrimary() {
		return n.srv.BeginRemap(ctx, id)
	}
	rc, err := n.primaryRelay(ctx)
	if err != nil {
		return nil, err
	}
	req, tx, err := rc.BeginRemap(ctx, id)
	if err != nil {
		n.dropRelay(rc)
		return nil, err
	}
	b.mu.Lock()
	if old := b.remaps[id]; old != nil {
		old.Abandon()
	}
	b.remaps[id] = tx
	b.mu.Unlock()
	return req, nil
}

// FinishRemapTx completes the key update begun by BeginRemapTx.
func (b *nodeBackend) FinishRemapTx(ctx context.Context, id auth.ClientID, success bool) error {
	b.mu.Lock()
	tx := b.remaps[id]
	delete(b.remaps, id)
	b.mu.Unlock()
	if tx != nil {
		return tx.Finish(ctx, success)
	}
	if b.n.isPrimary() {
		return b.n.srv.CompleteRemap(ctx, id, success)
	}
	return &auth.AuthError{
		Code:     auth.CodeInvalidRequest,
		ClientID: id,
		Err:      errInvalidNoRemap,
	}
}

// Health implements auth.HealthReporter: the embedded wire server
// answers client-port probes from it, which is what the routers'
// failure detectors and staleness skips feed on.
func (b *nodeBackend) Health() auth.PeerHealth {
	return b.n.health()
}

// health snapshots this node's replication health. A primary's commit
// and applied frontiers coincide (its WAL is the log of record); a
// follower advertises the primary's last heartbeated commit frontier
// as appliedSeq+lag so probes see the same staleness the guard
// enforces.
func (n *Node) health() auth.PeerHealth {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RolePrimary {
		seq := n.wal.CommittedSeq()
		return auth.PeerHealth{Primary: true, Term: n.term, CommitSeq: seq, AppliedSeq: seq}
	}
	return auth.PeerHealth{Term: n.term, CommitSeq: n.appliedSeq + n.lag, AppliedSeq: n.appliedSeq}
}

// maxStaleness is how many records a follower's replica may trail the
// primary's advertised commit frontier and still serve challenge
// issuance. Both ends of a read enforce it: the follower's own guard
// (checkStaleness), and the router, which skips a hedge fallback its
// prober last saw further behind (readTargets).
const maxStaleness = 512

// checkStaleness refuses follower reads once the replica trails the
// primary's advertised commit frontier by more than maxStaleness
// records. Unavailable (not a verdict) on purpose: the client's retry
// lands on a fresher node.
func (n *Node) checkStaleness(id auth.ClientID) error {
	n.mu.Lock()
	lag := n.lag
	n.mu.Unlock()
	if lag > maxStaleness {
		return unavailErrf(string(id), "replica %d records behind the primary (staleness bound %d)", lag, maxStaleness)
	}
	return nil
}

// shutdown abandons forwarded remap halves left open at node close.
func (b *nodeBackend) shutdown() {
	b.mu.Lock()
	txs := make([]*auth.RelayRemapTx, 0, len(b.remaps))
	for _, tx := range b.remaps {
		txs = append(txs, tx)
	}
	b.remaps = make(map[auth.ClientID]*auth.RelayRemapTx)
	b.mu.Unlock()
	for _, tx := range txs {
		tx.Abandon()
	}
}

// primaryRelay returns (dialing if needed) the relay connection to
// the current primary's client address.
func (n *Node) primaryRelay(ctx context.Context) (*auth.RelayClient, error) {
	n.mu.Lock()
	if len(n.cfg.ClientPeers) == 0 {
		n.mu.Unlock()
		return nil, unavailErrf("", "no client peer addresses configured for forwarding")
	}
	target := n.primaryIdx
	if rc := n.relay; rc != nil && n.relayIdx == target {
		n.mu.Unlock()
		return rc, nil
	}
	stale := n.relay
	n.relay = nil
	addr := n.cfg.ClientPeers[target]
	n.mu.Unlock()
	if stale != nil {
		stale.Close()
	}
	rc, err := auth.DialRelay(ctx, addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.relay != nil {
		existing := n.relay
		n.mu.Unlock()
		rc.Close()
		return existing, nil
	}
	if n.closed {
		n.mu.Unlock()
		rc.Close()
		return nil, unavailErrf("", "node shutting down")
	}
	n.relay = rc
	n.relayIdx = target
	n.mu.Unlock()
	return rc, nil
}

// dropRelay discards a relay connection that failed, so the next
// forward redials (possibly a newly promoted primary).
func (n *Node) dropRelay(rc *auth.RelayClient) {
	n.mu.Lock()
	if n.relay == rc {
		n.relay = nil
	}
	n.mu.Unlock()
	rc.Close()
}
