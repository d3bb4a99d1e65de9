package auth

import (
	"context"

	"repro/internal/crp"
	"repro/internal/ecc"
	"repro/internal/mapkey"
)

// Adaptive error remapping (paper Section 4.5).

// RemapRequest is the server→client key-update transaction.
type RemapRequest struct {
	Challenge *crp.Challenge
	Helper    ecc.HelperData
}

// BeginRemap starts a key update for the client using a reserved
// voltage plane. The challenge uses the *default* (identity) mapping,
// as the new key cannot be derived with a mapping that itself depends
// on it. The server computes the expected response, draws a fresh
// secret, and returns helper data that lets the client reproduce the
// secret despite response noise. The new key is held pending until
// CompleteRemap.
//
// While an update is pending, BeginRemap reissues the pending request
// (same challenge, helper data and key) instead of drawing a new one.
// A key-update begin can outlive its connection — the server runs it
// while the client has already given up and retried — and a stale
// begin that replaced the pending key between a retry's begin and
// commit would commit a key the device never derived. A reissue draws
// no challenge id, so nothing new is journaled.
func (s *Server) BeginRemap(ctx context.Context, id ClientID) (*RemapRequest, error) {
	if err := ctxErr(ctx, id); err != nil {
		return nil, err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.remap != nil {
		return rec.remap.req, nil
	}
	var reserved []int
	for _, v := range rec.physMap.Voltages() {
		if rec.reserved[v] {
			reserved = append(reserved, v)
		}
	}
	if len(reserved) == 0 {
		return nil, authErrf(CodeInvalidRequest, id, "auth: client has no reserved voltage planes")
	}
	vdd := reserved[s.randIntn(len(reserved))]
	phys := rec.physMap.Plane(vdd)
	g := rec.physMap.Geometry()

	// Response bits needed: keyBits * repetition factor.
	respBits := remapKeyBits * ecc.Repetition
	s.randMu.Lock()
	ch := crp.Generate(g, respBits, vdd, s.rand)
	s.randMu.Unlock()
	ch.ID = rec.nextID
	rec.nextID++
	if s.journal != nil {
		// Key-update challenges draw from reserved planes and burn no
		// registry pairs, but the counter advance must persist so a
		// recovered server never reissues a live challenge ID.
		if err := s.journal.JournalCounter(string(id), rec.nextID); err != nil {
			return nil, unavailableErr(id, err)
		}
	}

	field := phys.DistanceTransform()
	expected := crp.NewResponse(len(ch.Bits))
	for i, b := range ch.Bits {
		da, fa := nearDist(field, b.A)
		db, fb := nearDist(field, b.B)
		expected.SetBit(i, crp.ResponseBit(da, fa, db, fb))
	}

	secret := make([]byte, (remapKeyBits+7)/8)
	s.randMu.Lock()
	for i := range secret {
		secret[i] = byte(s.rand.Uint64())
	}
	s.randMu.Unlock()
	helper, err := ecc.GenerateHelper(expected.Bits, remapKeyBits, secret)
	if err != nil {
		return nil, authErr(CodeInternal, id, err)
	}
	strengthened := ecc.StrengthenKey(secret, "remap")
	req := &RemapRequest{Challenge: ch, Helper: helper}
	rec.remap = &remapState{req: req, newKey: mapkey.KeyFromBytes(strengthened[:], "remap/"+string(id))}
	return req, nil
}

// CompleteRemap commits the pending key rotation after the client
// acknowledges success (the client never discloses the response
// itself), or drops it on failure; either way the next BeginRemap
// draws a fresh request. Logical-plane caches are invalidated.
func (s *Server) CompleteRemap(ctx context.Context, id ClientID, success bool) error {
	if err := ctxErr(ctx, id); err != nil {
		return err
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return authErrf(CodeUnknownClient, id, "%w: %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.remap == nil {
		return authErr(CodeNoRemapPending, id, ErrNoRemapPending)
	}
	if success {
		// The rotation is journaled before it takes effect: a key the
		// client already derived but the server lost to a crash would
		// strand the device. On journal failure the remap stays
		// pending so the client can retry the commit.
		if s.journal != nil {
			if err := s.journal.JournalRemap(string(id), [32]byte(rec.remap.newKey)); err != nil {
				return unavailableErr(id, err)
			}
		}
		rec.rotateKeyLocked(rec.remap.newKey)
	}
	rec.remap = nil
	return nil
}
