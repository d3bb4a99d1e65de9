package auth

import (
	"testing"

	"repro/internal/crp"
)

func TestMultiVddChallengeSpansPlanes(t *testing.T) {
	m := testMap(t, 16384, 100, 31, 660, 680, 700)
	srv, resp := enrolledPair(t, DefaultConfig(), m, m)

	ch, err := srv.IssueChallengeMulti(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	vs := ch.Voltages()
	if len(vs) != 3 {
		t.Fatalf("challenge spans %d planes, want 3 (%v)", len(vs), vs)
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
		t.Fatal("genuine client rejected on a multi-Vdd challenge")
	}
}

func TestMultiVddSkipsReservedPlanes(t *testing.T) {
	m := testMap(t, 16384, 100, 32, 660, 680, 700)
	srv, _ := enrolledPair(t, DefaultConfig(), m, m, 700)
	ch, err := srv.IssueChallengeMulti(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range ch.Bits {
		if b.VddMV == 700 {
			t.Fatalf("bit %d uses the reserved plane", i)
		}
	}
}

func TestMultiVddImpostorStillRejected(t *testing.T) {
	enrolled := testMap(t, 16384, 100, 33, 660, 680)
	impostor := testMap(t, 16384, 100, 133, 660, 680)
	srv, _ := enrolledPair(t, DefaultConfig(), enrolled, enrolled)
	key, _ := srv.CurrentKey("dev-1")
	fake := NewResponder("dev-1", NewSimDevice(impostor), key)

	ch, err := srv.IssueChallengeMulti(ctx, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	answer, err := fake.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := srv.Verify(ctx, "dev-1", ch.ID, answer); ok {
		t.Fatal("impostor accepted on multi-Vdd challenge")
	}
}

func TestMultiVddBurnsPairsPerPlane(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChallengeBits = 30
	m := testMap(t, 1024, 30, 34, 660, 680)
	srv, _ := enrolledPair(t, cfg, m, m)
	seen := map[[3]int]bool{}
	for round := 0; round < 10; round++ {
		ch, err := srv.IssueChallengeMulti(ctx, "dev-1")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range ch.Bits {
			k := [3]int{b.A, b.B, b.VddMV}
			if b.A > b.B {
				k = [3]int{b.B, b.A, b.VddMV}
			}
			if seen[k] {
				t.Fatalf("pair %v reissued", k)
			}
			seen[k] = true
		}
	}
}

func TestMultiVddUnknownClient(t *testing.T) {
	srv := NewServer(DefaultConfig(), 1)
	if _, err := srv.IssueChallengeMulti(ctx, "ghost"); err == nil {
		t.Fatal("unknown client accepted")
	}
}

// The same physical pair may appear at two different voltages — they
// are distinct challenge points per the paper's 3D (x, y, V) space.
func TestSamePairDifferentPlanesAllowed(t *testing.T) {
	reg := crp.NewRegistryLines(16)
	if !reg.Consume(&crp.Challenge{Bits: []crp.PairBit{{A: 1, B: 2, VddMV: 660}}}) {
		t.Fatal("first consume failed")
	}
	if !reg.Consume(&crp.Challenge{Bits: []crp.PairBit{{A: 1, B: 2, VddMV: 680}}}) {
		t.Fatal("same pair at different Vdd rejected")
	}
}
