package auth

import (
	"errors"
	"testing"

	"repro/internal/crp"
	"repro/internal/mapkey"
)

// captureJournal records burned pairs, all of them and per burn
// record; the other mutations are irrelevant here.
type captureJournal struct {
	pairs []crp.PairBit
	burns []capturedBurn
}

// capturedBurn is one JournalBurn call.
type capturedBurn struct {
	pairs          []crp.PairBit
	nextID         uint64
	crpsSinceRemap int
}

func (c *captureJournal) JournalEnroll(string, []byte, [32]byte, []int) error { return nil }
func (c *captureJournal) JournalBurn(_ string, pairs []crp.PairBit, nextID uint64, crpsSinceRemap int) error {
	c.pairs = append(c.pairs, pairs...)
	c.burns = append(c.burns, capturedBurn{append([]crp.PairBit(nil), pairs...), nextID, crpsSinceRemap})
	return nil
}
func (c *captureJournal) JournalRemap(string, [32]byte) error { return nil }
func (c *captureJournal) JournalCounter(string, uint64) error { return nil }
func (c *captureJournal) JournalDelete(string) error          { return nil }

// A server rebuilt from a journal (crash recovery, or a follower
// applying a primary's log) starts its deterministic challenge stream
// over from the shared seed — but the registry it rebuilt already
// holds every pair the original stream drew. Replaying the stream
// verbatim then samples nothing but burned pairs and issuance dies
// with a spurious CodeExhausted while the pair space is almost
// entirely free. Recovery paths must salt the stream
// (SaltChallengeStream) after replay; this test pins both halves: the
// unsalted server really does walk into the burned prefix, and the
// salt really does decorrelate it.
func TestRecoveredStreamMustBeSalted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 64
	m := testMap(t, 16384, 100, 7, 680)
	mb, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var key mapkey.Key

	// Both servers share the seed; ReplayEnroll consumes no randomness,
	// so their streams are exactly aligned — the same alignment a
	// journal-rebuilt server has with its pre-crash self.
	const seed = 0x5eed
	cap := &captureJournal{}
	ocfg := cfg
	ocfg.WAL = cap
	original := NewServer(ocfg, seed)
	if err := original.ReplayEnroll("dev-1", mb, key, nil); err != nil {
		t.Fatal(err)
	}
	recovered := NewServer(cfg, seed)
	if err := recovered.ReplayEnroll("dev-1", mb, key, nil); err != nil {
		t.Fatal(err)
	}

	ch, err := original.IssueChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	// Replicate the burn, as log replay would.
	if len(cap.pairs) != cfg.ChallengeBits {
		t.Fatalf("journal captured %d burned pairs, want %d", len(cap.pairs), cfg.ChallengeBits)
	}
	if err := recovered.ReplayBurn("dev-1", cap.pairs, ch.ID+1, len(cap.pairs)); err != nil {
		t.Fatal(err)
	}

	// Unsalted, the recovered server re-draws the original's exact
	// sequence: 64 consecutive used-pair hits exhaust the retry budget.
	if _, err := recovered.IssueChallenge(ctx, "dev-1"); !errors.Is(err, ErrExhausted) {
		t.Fatalf("unsalted recovered server issued from the burned prefix (err=%v); "+
			"if stream alignment changed, rework this test's setup", err)
	}

	// Salted, the stream diverges and issuance succeeds immediately.
	recovered.SaltChallengeStream(1)
	if _, err := recovered.IssueChallenge(ctx, "dev-1"); err != nil {
		t.Fatalf("salted recovered server still cannot issue: %v", err)
	}
}
