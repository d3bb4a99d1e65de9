package auth

import (
	"context"

	"repro/internal/crp"
	"repro/internal/stats"
)

// Threshold returns the acceptance threshold (max tolerated differing
// bits) for an n-bit response under the binomial model (pIntra,
// pInter).
// Results are cached per response length: the equal-error-rate scan is
// O(n) with Lgamma per step and would otherwise dominate Verify.
func (s *Server) Threshold(n int) int {
	if t, ok := s.thresholds.Load(n); ok {
		return t.(int)
	}
	t, _, _ := stats.EqualErrorRate(n, pIntra, pInter)
	s.thresholds.Store(n, t)
	return t
}

// Verify checks a client's response against the pending challenge.
// The challenge is consumed either way — a failed attempt burns it,
// exactly like a wrong password attempt (and the no-reuse registry
// already holds its pairs).
func (s *Server) Verify(ctx context.Context, id ClientID, challengeID uint64, resp crp.Response) (bool, error) {
	if err := ctxErr(ctx, id); err != nil {
		return false, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return false, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	pend, ok := rec.pending[challengeID]
	if !ok {
		rec.mu.Unlock()
		return false, authErr(CodeUnknownChallenge, id, ErrUnknownChallenge)
	}
	delete(rec.pending, challengeID)
	rec.mu.Unlock()
	// The Hamming distance and threshold run outside the record lock;
	// pend is exclusively ours once removed from the pending map.
	if resp.N != pend.expected.N {
		s.stats.rejected.Add(1)
		return false, authErrf(CodeInvalidRequest, id, "auth: response is %d bits, want %d", resp.N, pend.expected.N)
	}
	if resp.HammingDistance(pend.expected) <= s.Threshold(resp.N) {
		s.stats.accepted.Add(1)
		return true, nil
	}
	s.stats.rejected.Add(1)
	return false, nil
}
