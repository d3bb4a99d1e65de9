package auth

import (
	"errors"
	"testing"

	"repro/internal/crp"
	"repro/internal/errormap"
	"repro/internal/mapkey"
	"repro/internal/noise"
	"repro/internal/rng"
)

// enrolledPair returns a server with one enrolled client and the
// matching responder, whose device measures the given field map (equal
// to the enrolled map unless a test perturbs it).
func enrolledPair(t *testing.T, cfg Config, enrolled, field *errormap.Map, reserved ...int) (*Server, *Responder) {
	t.Helper()
	srv := NewServer(cfg, 42)
	key, err := srv.Enroll(ctx, "dev-1", enrolled, reserved...)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponder("dev-1", NewSimDevice(field), key)
	return srv, resp
}

func testMap(t testing.TB, lines, k int, seed uint64, vdds ...int) *errormap.Map {
	t.Helper()
	g := errormap.NewGeometry(lines)
	m := errormap.NewMap(g)
	r := rng.New(seed)
	for _, v := range vdds {
		m.AddPlane(v, errormap.RandomPlane(g, k, r))
	}
	return m
}

func TestEnrollAndAuthenticateHonestClient(t *testing.T) {
	m := testMap(t, 16384, 100, 1, 680)
	srv, resp := enrolledPair(t, DefaultConfig(), m, m)
	for i := 0; i < 5; i++ {
		ch, err := srv.IssueChallenge(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		answer, err := resp.Respond(ch)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := srv.Verify(ctx, "dev-1", ch.ID, answer)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("honest client rejected on attempt %d", i)
		}
	}
	st := srv.Stats()
	if st.Issued != 5 || st.Accepted != 5 || st.Rejected != 0 {
		t.Fatalf("stats = (%d,%d,%d)", st.Issued, st.Accepted, st.Rejected)
	}
	if st.Clients != 1 {
		t.Fatalf("stats clients = %d, want 1", st.Clients)
	}
}

func TestImpostorRejected(t *testing.T) {
	enrolled := testMap(t, 16384, 100, 2, 680)
	impostor := testMap(t, 16384, 100, 99, 680) // different chip
	srv, resp := enrolledPair(t, DefaultConfig(), enrolled, impostor)
	ch, err := srv.IssueChallenge(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	answer, err := resp.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := srv.Verify(ctx, "dev-1", ch.ID, answer)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("impostor chip accepted")
	}
}

func TestNoisyHonestClientStillAccepted(t *testing.T) {
	enrolled := testMap(t, 16384, 100, 3, 680)
	// Field conditions: 10% new errors, 5% masked (normal operation).
	noisy := errormap.NewMap(enrolled.Geometry())
	noisy.AddPlane(680, noise.Apply(enrolled.Plane(680), noise.Profile{InjectFrac: 0.10, RemoveFrac: 0.05}, rng.New(4)))
	srv, resp := enrolledPair(t, DefaultConfig(), enrolled, noisy)
	accepted := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		ch, err := srv.IssueChallenge(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		answer, _ := resp.Respond(ch)
		ok, err := srv.Verify(ctx, "dev-1", ch.ID, answer)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			accepted++
		}
	}
	if accepted < trials-1 {
		t.Fatalf("noisy honest client accepted only %d/%d", accepted, trials)
	}
}

func TestUnknownClientErrors(t *testing.T) {
	srv := NewServer(DefaultConfig(), 1)
	if _, err := srv.IssueChallenge(ctx, "ghost"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("IssueChallenge: %v", err)
	}
	if _, err := srv.Verify(ctx, "ghost", 0, crp.NewResponse(8)); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("Verify: %v", err)
	}
	if _, err := srv.BeginRemap(ctx, "ghost"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("BeginRemap: %v", err)
	}
	if _, err := srv.CurrentKey("ghost"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("CurrentKey: %v", err)
	}
}

func TestDoubleEnrollRejected(t *testing.T) {
	m := testMap(t, 4096, 50, 5, 680)
	srv := NewServer(DefaultConfig(), 1)
	if _, err := srv.Enroll(ctx, "dev", m); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Enroll(ctx, "dev", m); !errors.Is(err, ErrAlreadyEnrolled) {
		t.Fatalf("double enroll: %v", err)
	}
	if !srv.Enrolled("dev") || srv.Enrolled("other") {
		t.Fatal("Enrolled accessor wrong")
	}
}

func TestChallengeNotReplayable(t *testing.T) {
	m := testMap(t, 16384, 100, 6, 680)
	srv, resp := enrolledPair(t, DefaultConfig(), m, m)
	ch, _ := srv.IssueChallenge(ctx, "dev-1")
	answer, _ := resp.Respond(ch)
	if ok, _ := srv.Verify(ctx, "dev-1", ch.ID, answer); !ok {
		t.Fatal("first verify failed")
	}
	// Replaying the same challenge ID must fail: it was consumed.
	if _, err := srv.Verify(ctx, "dev-1", ch.ID, answer); !errors.Is(err, ErrUnknownChallenge) {
		t.Fatalf("replay: %v", err)
	}
}

func TestIssuedPairsNeverRepeat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 64
	m := testMap(t, 4096, 50, 7, 680)
	srv, _ := enrolledPair(t, cfg, m, m)
	seen := map[[2]int]bool{}
	for i := 0; i < 30; i++ {
		ch, err := srv.IssueChallenge(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range ch.Bits {
			k := [2]int{b.A, b.B}
			if b.A > b.B {
				k = [2]int{b.B, b.A}
			}
			if seen[k] {
				t.Fatalf("pair %v issued twice", k)
			}
			seen[k] = true
		}
	}
}

func TestIssueChallengeAtRespectsReservation(t *testing.T) {
	cfg := DefaultConfig()
	m := testMap(t, 4096, 50, 8, 680, 700)
	srv, _ := enrolledPair(t, cfg, m, m, 700)
	if _, err := srv.IssueChallengeAt(ctx, "dev-1", 700); err == nil {
		t.Fatal("reserved voltage issued for ordinary auth")
	}
	if _, err := srv.IssueChallengeAt(ctx, "dev-1", 680); err != nil {
		t.Fatalf("normal voltage rejected: %v", err)
	}
	if _, err := srv.IssueChallengeAt(ctx, "dev-1", 999); !errors.Is(err, ErrBadPlane) {
		t.Fatalf("unknown voltage: %v", err)
	}
}

func TestWrongLengthResponseRejected(t *testing.T) {
	m := testMap(t, 4096, 50, 9, 680)
	srv, _ := enrolledPair(t, DefaultConfig(), m, m)
	ch, _ := srv.IssueChallenge(ctx, "dev-1")
	short := crp.NewResponse(8)
	ok, err := srv.Verify(ctx, "dev-1", ch.ID, short)
	if ok || err == nil {
		t.Fatal("short response accepted")
	}
}

func TestWrongKeyClientRejected(t *testing.T) {
	// A client holding a stale key answers in the wrong logical space
	// and must be rejected even though the silicon is genuine.
	m := testMap(t, 16384, 100, 10, 680)
	srv, resp := enrolledPair(t, DefaultConfig(), m, m)
	stale := NewResponder("dev-1", NewSimDevice(m), mapkey.KeyFromBytes([]byte("wrong"), "k"))
	ch, _ := srv.IssueChallenge(ctx, "dev-1")
	answer, _ := stale.Respond(ch)
	if ok, _ := srv.Verify(ctx, "dev-1", ch.ID, answer); ok {
		t.Fatal("stale-key client accepted")
	}
	_ = resp
}

func TestRemapProtocolRotatesKey(t *testing.T) {
	cfg := DefaultConfig()
	m := testMap(t, 16384, 100, 11, 680, 700)
	srv, resp := enrolledPair(t, cfg, m, m, 700)
	oldKey := resp.Key()

	req, err := srv.BeginRemap(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Challenge.Bits) != cfg.RemapKeyBits*5 {
		t.Fatalf("remap challenge bits = %d", len(req.Challenge.Bits))
	}
	if err := resp.HandleRemap(req); err != nil {
		t.Fatal(err)
	}
	if err := srv.CompleteRemap(ctx, "dev-1", true); err != nil {
		t.Fatal(err)
	}
	if resp.Key() == oldKey {
		t.Fatal("client key did not rotate")
	}
	srvKey, _ := srv.CurrentKey("dev-1")
	if srvKey != resp.Key() {
		t.Fatal("client and server derived different keys")
	}
	// Authentication continues to work under the new key.
	ch, _ := srv.IssueChallenge(ctx, "dev-1")
	answer, _ := resp.Respond(ch)
	if ok, _ := srv.Verify(ctx, "dev-1", ch.ID, answer); !ok {
		t.Fatal("post-remap authentication failed")
	}
}

func TestRemapSurvivesResponseNoise(t *testing.T) {
	cfg := DefaultConfig()
	enrolled := testMap(t, 16384, 100, 12, 680, 700)
	// Field map with mild noise on the reserved plane: the fuzzy
	// extractor must still converge.
	field := enrolled.Clone()
	noisyPlane := noise.Apply(enrolled.Plane(700), noise.Profile{InjectFrac: 0.02}, rng.New(13))
	field = errormap.NewMap(enrolled.Geometry())
	field.AddPlane(680, enrolled.Plane(680).Clone())
	field.AddPlane(700, noisyPlane)
	srv, resp := enrolledPair(t, cfg, enrolled, field, 700)

	req, err := srv.BeginRemap(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.HandleRemap(req); err != nil {
		t.Fatal(err)
	}
	if err := srv.CompleteRemap(ctx, "dev-1", true); err != nil {
		t.Fatal(err)
	}
	srvKey, _ := srv.CurrentKey("dev-1")
	if srvKey != resp.Key() {
		t.Fatal("keys diverged under mild reserved-plane noise")
	}
}

func TestRemapWithoutReservedPlane(t *testing.T) {
	m := testMap(t, 4096, 50, 14, 680)
	srv, _ := enrolledPair(t, DefaultConfig(), m, m)
	if _, err := srv.BeginRemap(ctx, "dev-1"); err == nil {
		t.Fatal("remap without reserved planes accepted")
	}
	if err := srv.CompleteRemap(ctx, "dev-1", true); !errors.Is(err, ErrNoRemapPending) {
		t.Fatalf("CompleteRemap: %v", err)
	}
}

func TestCompleteRemapFailureKeepsOldKey(t *testing.T) {
	cfg := DefaultConfig()
	m := testMap(t, 16384, 100, 15, 680, 700)
	srv, resp := enrolledPair(t, cfg, m, m, 700)
	oldSrvKey, _ := srv.CurrentKey("dev-1")
	if _, err := srv.BeginRemap(ctx, "dev-1"); err != nil {
		t.Fatal(err)
	}
	if err := srv.CompleteRemap(ctx, "dev-1", false); err != nil {
		t.Fatal(err)
	}
	srvKey, _ := srv.CurrentKey("dev-1")
	if srvKey != oldSrvKey {
		t.Fatal("failed remap rotated the server key")
	}
	// Old key still authenticates.
	ch, _ := srv.IssueChallenge(ctx, "dev-1")
	answer, _ := resp.Respond(ch)
	if ok, _ := srv.Verify(ctx, "dev-1", ch.ID, answer); !ok {
		t.Fatal("old key broken after failed remap")
	}
}

// When the pair space of a tiny map runs dry, the server must fail
// with ErrExhausted — never hang retrying or reissue burned pairs.
func TestChallengeSpaceExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 32
	m := testMap(t, 64, 8, 45, 680) // 64*63/2 = 2016 pairs -> ~63 challenges
	srv, _ := enrolledPair(t, cfg, m, m)

	issued := 0
	var exhausted bool
	for i := 0; i < 100; i++ {
		_, err := srv.IssueChallenge(ctx, "dev-1")
		if err == nil {
			issued++
			continue
		}
		if !errors.Is(err, ErrExhausted) {
			t.Fatalf("unexpected error: %v", err)
		}
		exhausted = true
		break
	}
	if !exhausted {
		t.Fatalf("space never exhausted after %d issues", issued)
	}
	// The generator's rejection sampling gets unlucky before literally
	// every pair is burned, but the bulk of the space must be usable.
	if issued < 40 {
		t.Fatalf("only %d challenges issued before exhaustion (space holds ~63)", issued)
	}
	// Exhaustion is sticky.
	if _, err := srv.IssueChallenge(ctx, "dev-1"); !errors.Is(err, ErrExhausted) {
		t.Fatalf("post-exhaustion issue: %v", err)
	}
}

func TestThresholdReasonable(t *testing.T) {
	srv := NewServer(DefaultConfig(), 1)
	thr := srv.Threshold(256)
	if thr <= 256/10 || thr >= 128 {
		t.Fatalf("threshold = %d for 256 bits", thr)
	}
}

func TestLogicalPlanePreservesErrorCount(t *testing.T) {
	g := errormap.NewGeometry(4096)
	phys := errormap.RandomPlane(g, 60, rng.New(16))
	key := mapkey.KeyFromBytes([]byte("k"), "t")
	logical := LogicalPlane(phys, key, 680)
	if logical.ErrorCount() != phys.ErrorCount() {
		t.Fatalf("logical errors = %d, phys = %d", logical.ErrorCount(), phys.ErrorCount())
	}
	if logical.Equal(phys) {
		t.Fatal("logical plane identical to physical (no permutation?)")
	}
	// Different voltages must use different permutations.
	l2 := LogicalPlane(phys, key, 700)
	if l2.Equal(logical) {
		t.Fatal("plane permutations identical across voltages")
	}
}
