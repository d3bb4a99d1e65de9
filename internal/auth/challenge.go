package auth

import (
	"context"

	"repro/internal/crp"
	"repro/internal/errormap"
)

// Issuance runs in three steps, each under the client's record lock:
//
//   - draw: fresh logical pairs and their physical images; nothing is
//     consumed (drawLocked);
//   - burn: consume the physical pairs in the no-reuse registry,
//     journal the burn, then assign the challenge id and advance the
//     counters (burnLocked);
//   - install: precompute the expected response on the logical planes
//     and hold the challenge pending (installLocked).
//
// A local issue runs all three. Delegated issuance (delegate.go) runs
// the same steps on two machines: the follower draws, the primary
// burns, the follower installs. The no-reuse invariant — no pair is
// ever issued twice — therefore lives in one draw and one burn.

// authVoltagesLocked lists the client's planes usable for ordinary
// challenges, refusing a client that has none. Callers hold rec.mu.
func authVoltagesLocked(id ClientID, rec *clientRecord) ([]int, error) {
	var out []int
	for _, v := range rec.physMap.Voltages() {
		if !rec.reserved[v] {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, authErrf(CodeInvalidRequest, id, "auth: no non-reserved voltage planes enrolled")
	}
	return out, nil
}

// logicalFieldLocked returns (building and caching as needed) the distance
// field of the client's logical plane at the voltage under the current
// key. Callers hold rec.mu.
func logicalFieldLocked(id ClientID, rec *clientRecord, vddMV int) (*errormap.DistanceField, error) {
	if f, ok := rec.logicalFields[vddMV]; ok {
		return f, nil
	}
	phys := rec.physMap.Plane(vddMV)
	if phys == nil {
		return nil, authErrf(CodeBadPlane, id, "%w: %d mV", ErrBadPlane, vddMV)
	}
	f := permutePlane(phys, rec.permLocked(vddMV)).DistanceTransform()
	rec.logicalFields[vddMV] = f
	return f, nil
}

// IssueChallenge draws a fresh challenge for the client at a random
// non-reserved voltage plane, burning the underlying physical pairs in
// the no-reuse registry. The returned challenge uses logical
// coordinates and a server-assigned ID the client must echo.
func (s *Server) IssueChallenge(ctx context.Context, id ClientID) (*crp.Challenge, error) {
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
	return s.issueLocked(id, rec, s.singleVdd(vs[s.randIntn(len(vs))]))
}

// IssueChallengeAt issues at a specific enrolled, non-reserved
// voltage.
func (s *Server) IssueChallengeAt(ctx context.Context, id ClientID, vddMV int) (*crp.Challenge, error) {
	if err := ctxErr(ctx, id); err != nil {
		return nil, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.reserved[vddMV] {
		return nil, authErrf(CodeInvalidRequest, id, "auth: %d mV is reserved for key updates", vddMV)
	}
	return s.issueLocked(id, rec, s.singleVdd(vddMV))
}

// IssueChallengeMulti issues a challenge whose bits are spread evenly
// across all of the client's non-reserved voltage planes — the paper's
// multi-Vdd extension (Section 4.3 leaves the optimisation to future
// work; the client minimises rail transitions by answering bits in
// descending-voltage order). More planes per challenge multiply the
// CRP space and force an attacker to model every plane at once.
func (s *Server) IssueChallengeMulti(ctx context.Context, id ClientID) (*crp.Challenge, error) {
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
	vdds := make([]int, s.cfg.ChallengeBits)
	for i := range vdds {
		vdds[i] = vs[i%len(vs)]
	}
	return s.issueLocked(id, rec, vdds)
}

// singleVdd lays out a single-voltage challenge: every bit at vddMV.
func (s *Server) singleVdd(vddMV int) []int {
	vdds := make([]int, s.cfg.ChallengeBits)
	for i := range vdds {
		vdds[i] = vddMV
	}
	return vdds
}

// issueLocked issues one challenge whose bit i runs at vdds[i]: draw,
// burn, install. Callers hold rec.mu.
func (s *Server) issueLocked(id ClientID, rec *clientRecord, vdds []int) (*crp.Challenge, error) {
	// Build the fields install reads before the draw, so an unenrolled
	// plane is refused before anything is drawn or burned.
	for _, v := range vdds {
		if _, err := logicalFieldLocked(id, rec, v); err != nil {
			return nil, err
		}
	}
	logical, phys, err := s.drawLocked(id, rec, vdds)
	if err != nil {
		return nil, err
	}
	chID, err := s.burnLocked(id, rec, phys)
	if err != nil {
		return nil, err
	}
	ch := &crp.Challenge{ID: chID, Bits: logical}
	installLocked(rec, ch)
	return cloneChallenge(ch), nil
}

// drawLocked draws one pair per entry of vdds, at that voltage: the
// logical pair for the client and its physical image for the registry.
// No physical pair is one the registry holds or one drawn earlier in
// the same challenge. Nothing is consumed. Callers hold rec.mu.
func (s *Server) drawLocked(id ClientID, rec *clientRecord, vdds []int) (logical, phys []crp.PairBit, err error) {
	lines := rec.physMap.Geometry().Lines
	logical = make([]crp.PairBit, len(vdds))
	phys = make([]crp.PairBit, len(vdds))
	// physKeys mirrors phys as canonical fingerprints so the
	// within-challenge duplicate scan is a word compare, not a struct
	// compare — this loop is on the wire protocol's hot path.
	physKeys := make([]uint64, len(vdds))
	const maxRetries = 64
	for i, vdd := range vdds {
		perm := rec.permLocked(vdd)
		ok := false
		for attempt := 0; attempt < maxRetries; attempt++ {
			a, b := s.randIntn2(lines)
			if a == b {
				continue
			}
			// The registry is canonical over *physical* pairs so that
			// key rotation cannot resurrect consumed challenges.
			p := crp.PairBit{A: perm.Unmap(a), B: perm.Unmap(b), VddMV: vdd}
			if rec.registry.IsUsed(p) {
				continue
			}
			key := pairFingerprint(p)
			dup := false
			for j := 0; j < i; j++ {
				if physKeys[j] == key {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			logical[i] = crp.PairBit{A: a, B: b, VddMV: vdd}
			phys[i] = p
			physKeys[i] = key
			ok = true
			break
		}
		if !ok {
			return nil, nil, authErr(CodeExhausted, id, ErrExhausted)
		}
	}
	return logical, phys, nil
}

// burnLocked consumes phys in the no-reuse registry, journals the
// burn, and assigns the challenge id, advancing the challenge counter
// and the per-key CRP count. Callers hold rec.mu.
func (s *Server) burnLocked(id ClientID, rec *clientRecord, phys []crp.PairBit) (uint64, error) {
	if !rec.registry.Consume(&crp.Challenge{Bits: phys}) {
		return 0, authErr(CodeExhausted, id, ErrExhausted)
	}
	if s.journal != nil {
		// Journal before the challenge can leave the server; the
		// append returns once the record is fsynced (group commit
		// amortises the sync across concurrent issues). On failure the
		// pairs stay burned in memory — the conservative direction:
		// no challenge was issued, so nothing replayable exists.
		err := s.journal.JournalBurn(string(id), phys, rec.nextID+1, rec.crpsSinceRemap+len(phys))
		if err != nil {
			return 0, unavailableErr(id, err)
		}
	}
	chID := rec.nextID
	rec.nextID++
	rec.crpsSinceRemap += len(phys)
	s.stats.issued.Add(1)
	return chID, nil
}

// installLocked precomputes ch's expected response on the logical
// planes and holds ch pending for verification. The caller has built
// the field of every voltage ch uses (logicalFieldLocked). Callers
// hold rec.mu.
func installLocked(rec *clientRecord, ch *crp.Challenge) {
	// A last-voltage memo skips the map lookup on the common
	// single-voltage challenge.
	expected := crp.NewResponse(len(ch.Bits))
	var field *errormap.DistanceField
	lastVdd := -1
	for i, b := range ch.Bits {
		if b.VddMV != lastVdd {
			field = rec.logicalFields[b.VddMV]
			lastVdd = b.VddMV
		}
		da, fa := field.DistLine(b.A), field != nil
		db, fb := field.DistLine(b.B), field != nil
		expected.SetBit(i, crp.ResponseBit(da, fa, db, fb))
	}
	rec.pending[ch.ID] = pendingChallenge{ch: ch, expected: expected}
}

// NeedsRemap reports whether the client has consumed its CRP budget
// under the current key and should rotate (Section 6.7 mitigation).
func (s *Server) NeedsRemap(id ClientID) bool {
	rec, ok := s.store.Get(id)
	if !ok || s.cfg.RemapAfterCRPs <= 0 {
		return false
	}
	rec.mu.Lock()
	n := rec.crpsSinceRemap
	rec.mu.Unlock()
	return n >= s.cfg.RemapAfterCRPs
}
