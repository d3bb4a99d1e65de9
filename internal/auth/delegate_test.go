package auth

import (
	"testing"

	"repro/internal/crp"
	"repro/internal/mapkey"
)

// delegatedPair returns a primary journaling into j and a follower
// holding the same enrollment of "dev-1" (what snapshot catch-up
// leaves on a cluster's replicas), plus the genuine device.
func delegatedPair(t *testing.T, j *captureJournal) (primary, follower *Server, dev *Responder) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ChallengeBits = 64
	m := testMap(t, 4096, 40, 11, 680, 720)
	mb, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	key := mapkey.KeyFromBytes([]byte("delegated"), "test")
	pcfg := cfg
	pcfg.WAL = j
	primary = NewServer(pcfg, 1)
	follower = NewServer(cfg, 2)
	for _, s := range []*Server{primary, follower} {
		if err := s.ReplayEnroll("dev-1", mb, key, nil); err != nil {
			t.Fatal(err)
		}
	}
	return primary, follower, NewResponder("dev-1", NewSimDevice(m), key)
}

// recordCounters reads a client's challenge counter and per-key CRP
// count.
func recordCounters(t *testing.T, s *Server, id ClientID) (nextID uint64, crps int) {
	t.Helper()
	rec, ok := s.store.Get(id)
	if !ok {
		t.Fatalf("%s not enrolled", id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.nextID, rec.crpsSinceRemap
}

// usedPairs reports which of pairs the client's registry holds.
func usedPairs(t *testing.T, s *Server, id ClientID, pairs []crp.PairBit) []bool {
	t.Helper()
	rec, ok := s.store.Get(id)
	if !ok {
		t.Fatalf("%s not enrolled", id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		out[i] = rec.registry.IsUsed(p)
	}
	return out
}

func TestApproveBurnRefusalsBurnNothing(t *testing.T) {
	j := &captureJournal{}
	primary, _, _ := delegatedPair(t, j)
	granted, err := primary.SampleChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.ApproveBurn(ctx, "dev-1", granted.Phys, granted.KeySum); err != nil {
		t.Fatal(err)
	}
	fresh, err := primary.SampleChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	consumed := append([]crp.PairBit(nil), fresh.Phys...)
	consumed[len(consumed)-1] = granted.Phys[0]
	// The repeat names the same pair with its lines swapped.
	repeated := append([]crp.PairBit(nil), fresh.Phys...)
	repeated[1] = crp.PairBit{A: repeated[0].B, B: repeated[0].A, VddMV: repeated[0].VddMV}
	cases := []struct {
		name   string
		phys   []crp.PairBit
		keySum uint64
	}{
		{"consumed pair", consumed, fresh.KeySum},
		{"repeated pair", repeated, fresh.KeySum},
		{"stale key sum", fresh.Phys, fresh.KeySum ^ 1},
	}
	for _, c := range cases {
		nextID, crps := recordCounters(t, primary, "dev-1")
		burns := len(j.burns)
		issued := primary.Stats().Issued
		if _, err := primary.ApproveBurn(ctx, "dev-1", c.phys, c.keySum); CodeOf(err) != CodeInvalidRequest {
			t.Errorf("%s: ApproveBurn err = %v, want invalid_request", c.name, err)
		}
		if len(j.burns) != burns {
			t.Errorf("%s: refused proposal was journaled", c.name)
		}
		if n, k := recordCounters(t, primary, "dev-1"); n != nextID || k != crps {
			t.Errorf("%s: counters moved to (%d, %d), want (%d, %d)", c.name, n, k, nextID, crps)
		}
		if got := primary.Stats().Issued; got != issued {
			t.Errorf("%s: issued counter moved %d -> %d", c.name, issued, got)
		}
		for i, used := range usedPairs(t, primary, "dev-1", fresh.Phys) {
			if used {
				t.Errorf("%s: fresh pair %d burned by a refused proposal", c.name, i)
			}
		}
	}
}

func TestApproveBurnGrantJournalsOnce(t *testing.T) {
	j := &captureJournal{}
	primary, _, _ := delegatedPair(t, j)
	// One local issue first, so the grant's counters do not start at 0.
	if _, err := primary.IssueChallenge(ctx, "dev-1"); err != nil {
		t.Fatal(err)
	}
	prop, err := primary.SampleChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	nextID, crps := recordCounters(t, primary, "dev-1")
	burns := len(j.burns)
	chID, err := primary.ApproveBurn(ctx, "dev-1", prop.Phys, prop.KeySum)
	if err != nil {
		t.Fatal(err)
	}
	if chID != nextID {
		t.Errorf("granted id %d, want the counter %d", chID, nextID)
	}
	if len(j.burns) != burns+1 {
		t.Fatalf("grant wrote %d burn records, want 1", len(j.burns)-burns)
	}
	b := j.burns[len(j.burns)-1]
	if b.nextID != chID+1 || b.crpsSinceRemap != crps+len(prop.Phys) {
		t.Errorf("burn record counters (%d, %d), want (%d, %d)", b.nextID, b.crpsSinceRemap, chID+1, crps+len(prop.Phys))
	}
	if len(b.pairs) != len(prop.Phys) {
		t.Fatalf("burn record holds %d pairs, want %d", len(b.pairs), len(prop.Phys))
	}
	for i := range b.pairs {
		if b.pairs[i] != prop.Phys[i] {
			t.Errorf("burn record pair %d = %+v, want %+v", i, b.pairs[i], prop.Phys[i])
		}
	}
	for i, used := range usedPairs(t, primary, "dev-1", prop.Phys) {
		if !used {
			t.Errorf("granted pair %d not burned", i)
		}
	}
	if n, k := recordCounters(t, primary, "dev-1"); n != chID+1 || k != crps+len(prop.Phys) {
		t.Errorf("counters (%d, %d) after grant, want (%d, %d)", n, k, chID+1, crps+len(prop.Phys))
	}
	if got := primary.Stats().Issued; got != 2 {
		t.Errorf("issued = %d, want 2", got)
	}
}

func TestCommitDelegatedRefusesRotatedKey(t *testing.T) {
	j := &captureJournal{}
	primary, follower, dev := delegatedPair(t, j)
	prop, err := follower.SampleChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	chID, err := primary.ApproveBurn(ctx, "dev-1", prop.Phys, prop.KeySum)
	if err != nil {
		t.Fatal(err)
	}
	// A replicated key rotation lands between the grant and the commit.
	if err := follower.ReplayRemap("dev-1", mapkey.KeyFromBytes([]byte("rotated"), "test")); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.CommitDelegated(ctx, "dev-1", chID, prop); CodeOf(err) != CodeInvalidRequest {
		t.Fatalf("CommitDelegated under a rotated key: err = %v, want invalid_request", err)
	}
	resp, err := dev.Respond(&crp.Challenge{ID: chID, Bits: prop.Logical})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Verify(ctx, "dev-1", chID, resp); CodeOf(err) != CodeUnknownChallenge {
		t.Fatalf("refused commit left a pending challenge: Verify err = %v", err)
	}
}

func TestSampleAvoidsMarkedAndRepeatedPairs(t *testing.T) {
	const lines, vdd = 128, 680
	cfg := DefaultConfig()
	cfg.ChallengeBits = 64
	m := testMap(t, lines, 8, 5, vdd)
	mb, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	key := mapkey.KeyFromBytes([]byte("sample"), "test")
	follower := NewServer(cfg, 3)
	if err := follower.ReplayEnroll("dev-1", mb, key, nil); err != nil {
		t.Fatal(err)
	}
	// The replica has seen two pairs in three burned, so a sample that
	// ignored the registry would hit one on almost every bit.
	var marked []crp.PairBit
	markedSet := map[uint64]bool{}
	for a := 0; a < lines; a++ {
		for b := a + 1; b < lines; b++ {
			if (a+b)%3 != 0 {
				p := crp.PairBit{A: a, B: b, VddMV: vdd}
				marked = append(marked, p)
				markedSet[pairFingerprint(p)] = true
			}
		}
	}
	if err := follower.ReplayBurn("dev-1", marked, 1, len(marked)); err != nil {
		t.Fatal(err)
	}
	perm := mapkey.NewPermutation(mapkey.PlaneKey(key, vdd), lines)
	for round := 0; round < 20; round++ {
		prop, err := follower.SampleChallenge(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		if len(prop.Phys) != cfg.ChallengeBits || len(prop.Logical) != cfg.ChallengeBits {
			t.Fatalf("sample of %d/%d bits, want %d", len(prop.Phys), len(prop.Logical), cfg.ChallengeBits)
		}
		seen := map[uint64]bool{}
		for i, p := range prop.Phys {
			fp := pairFingerprint(p)
			if markedSet[fp] {
				t.Fatalf("round %d bit %d: sample holds marked pair %+v", round, i, p)
			}
			if seen[fp] {
				t.Fatalf("round %d bit %d: sample holds pair %+v twice", round, i, p)
			}
			seen[fp] = true
			l := prop.Logical[i]
			if l.VddMV != vdd || p.VddMV != vdd || perm.Unmap(l.A) != p.A || perm.Unmap(l.B) != p.B {
				t.Fatalf("round %d bit %d: logical %+v does not map to physical %+v", round, i, l, p)
			}
		}
	}
}

func TestDelegatedChallengeVerifiesOnFollower(t *testing.T) {
	j := &captureJournal{}
	primary, follower, dev := delegatedPair(t, j)
	for i := 0; i < 3; i++ {
		prop, err := follower.SampleChallenge(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		chID, err := primary.ApproveBurn(ctx, "dev-1", prop.Phys, prop.KeySum)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := follower.CommitDelegated(ctx, "dev-1", chID, prop)
		if err != nil {
			t.Fatal(err)
		}
		if ch.ID != chID {
			t.Fatalf("installed id %d, want granted %d", ch.ID, chID)
		}
		resp, err := dev.Respond(ch)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := follower.Verify(ctx, "dev-1", ch.ID, resp)
		if err != nil || !ok {
			t.Fatalf("delegated challenge %d: ok=%v err=%v", i, ok, err)
		}
		// The primary's burn record replicates back, as on a follower's
		// record feed.
		b := j.burns[len(j.burns)-1]
		if err := follower.ReplayBurn("dev-1", b.pairs, b.nextID, b.crpsSinceRemap); err != nil {
			t.Fatal(err)
		}
	}
}
