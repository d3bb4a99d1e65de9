package auth

import (
	"strings"
	"testing"

	"repro/internal/errormap"
	"repro/internal/rng"
)

// FuzzLoadState hardens the enrollment-database decoder against
// corrupted or malicious state files: arbitrary input must either load
// a usable database or be rejected cleanly.
func FuzzLoadState(f *testing.F) {
	// Seed with real state files: a fresh enrollment and a database
	// with burned pairs, both in v3, and the v2 fixture.
	g := errormap.NewGeometry(1024)
	m := errormap.NewMap(g)
	m.AddPlane(680, errormap.RandomPlane(g, 20, rng.New(77)))
	srv := NewServer(DefaultConfig(), 1)
	if _, err := srv.Enroll(ctx, "seed-dev", m); err != nil {
		f.Fatal(err)
	}
	var sb strings.Builder
	if err := srv.SaveState(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	f.Add("")
	f.Add("{}")
	f.Add(`{"version":1,"clients":[{"id":"x","map":"!!!","key":"00"}]}`)
	v2 := readFixture(f, "state-v2.json")
	f.Add(string(v2))
	if err := srv.LoadState(strings.NewReader(string(v2))); err != nil {
		f.Fatal(err)
	}
	sb.Reset()
	if err := srv.SaveState(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())

	f.Fuzz(func(t *testing.T, data string) {
		target := NewServer(DefaultConfig(), 2)
		if err := target.LoadState(strings.NewReader(data)); err != nil {
			return
		}
		// A successfully loaded database must be fully operational:
		// every listed client resolves a key, and challenge issue
		// either works or fails with a protocol error (never panics).
		for _, id := range target.ClientIDs() {
			if _, err := target.CurrentKey(id); err != nil {
				t.Fatalf("loaded client %q has no key: %v", id, err)
			}
			_, _ = target.IssueChallenge(ctx, id)
		}
	})
}
