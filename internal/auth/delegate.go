package auth

import (
	"context"
	"hash/fnv"

	"repro/internal/crp"
)

// Delegated challenge issuance is the follower read-scaling protocol,
// the local issue's draw, burn and install steps (challenge.go) split
// across machines: a follower draws a challenge against its replicated
// state without consuming anything, the primary validates the sample
// and burns it (consume, journal — the record then replicates back —
// and assign the id), and the follower installs the pending challenge
// under the primary-assigned id. The expensive work — pair
// sampling, logical-field distance transforms, expected-response
// HMACs, and the eventual verification — all runs on the follower;
// the primary's share is a short critical section plus one journaled
// record. The no-reuse invariant stays global because only the
// primary ever consumes.
//
// A proposal races two things, both detected: a concurrent challenge
// consuming the same pair (the primary refuses; the follower
// resamples) and a key rotation (the key fingerprint mismatches on
// the primary or at commit time; the transaction aborts).

// DelegatedProposal is a follower-sampled challenge awaiting primary
// approval: logical coordinates for the client, canonical physical
// pairs for the registry, and a fingerprint of the remap key the
// sample was drawn under.
type DelegatedProposal struct {
	Logical []crp.PairBit
	Phys    []crp.PairBit
	KeySum  uint64
}

// keySumLocked fingerprints the client's current remap key for
// staleness detection (not secrecy — the fingerprint never leaves the
// replication link). Callers hold rec.mu.
func keySumLocked(rec *clientRecord) uint64 {
	h := fnv.New64a()
	h.Write(rec.key[:])
	return h.Sum64()
}

// SampleChallenge draws the pairs of a single-voltage challenge
// without consuming, journaling, or installing anything: the
// follower's half of delegated issuance, the draw step alone. The
// sample avoids pairs the local registry replica already saw, so
// proposals rarely conflict on the primary.
func (s *Server) SampleChallenge(ctx context.Context, id ClientID) (*DelegatedProposal, error) {
	if err := ctxErr(ctx, id); err != nil {
		return nil, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	vs, err := authVoltagesLocked(id, rec)
	if err != nil {
		return nil, err
	}
	logical, phys, err := s.drawLocked(id, rec, s.singleVdd(vs[s.randIntn(len(vs))]))
	if err != nil {
		return nil, err
	}
	return &DelegatedProposal{Logical: logical, Phys: phys, KeySum: keySumLocked(rec)}, nil
}

// ApproveBurn is the primary's half of delegated issuance: validate a
// proposal against the authoritative registry and key, then run the
// burn step — consume its pairs, journal the burn, and assign the
// challenge id. The burn record replicates to every follower through
// the ordinary log stream, converging their registry replicas.
func (s *Server) ApproveBurn(ctx context.Context, id ClientID, phys []crp.PairBit, keySum uint64) (uint64, error) {
	if err := ctxErr(ctx, id); err != nil {
		return 0, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return 0, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if keySumLocked(rec) != keySum {
		return 0, authErrf(CodeInvalidRequest, id, "auth: proposal sampled under a rotated key")
	}
	// Pairwise-distinct and unused, or the whole proposal is refused —
	// the follower resamples against its (by then fresher) replica.
	seen := make(map[uint64]struct{}, len(phys))
	for _, p := range phys {
		if rec.registry.IsUsed(p) {
			return 0, authErrf(CodeInvalidRequest, id, "auth: proposal pair already consumed")
		}
		fp := pairFingerprint(p)
		if _, dup := seen[fp]; dup {
			return 0, authErrf(CodeInvalidRequest, id, "auth: proposal repeats a pair")
		}
		seen[fp] = struct{}{}
	}
	return s.burnLocked(id, rec, phys)
}

// CommitDelegated is the follower's closing half: after the primary
// granted challengeID for prop, mark the pairs and counters the grant
// moved in the local replica, then run the install step so
// verification runs entirely on the follower. The replicated burn
// record arriving later re-marks the same pairs idempotently.
func (s *Server) CommitDelegated(ctx context.Context, id ClientID, challengeID uint64, prop *DelegatedProposal) (*crp.Challenge, error) {
	if err := ctxErr(ctx, id); err != nil {
		return nil, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if keySumLocked(rec) != prop.KeySum {
		return nil, authErrf(CodeInvalidRequest, id, "auth: key rotated between sample and grant")
	}
	for _, b := range prop.Logical {
		if _, err := logicalFieldLocked(id, rec, b.VddMV); err != nil {
			return nil, err
		}
	}
	rec.registry.Mark(prop.Phys)
	if challengeID >= rec.nextID {
		rec.nextID = challengeID + 1
	}
	rec.crpsSinceRemap += len(prop.Logical)
	ch := &crp.Challenge{ID: challengeID, Bits: prop.Logical}
	installLocked(rec, ch)
	return cloneChallenge(ch), nil
}
