package cluster

import (
	"testing"
	"time"

	"repro/internal/auth"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Second, 7)
	for i := 0; i < 2; i++ {
		b.Failure(now)
		if !b.Allow(now) {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.Failure(now)
	if b.Allow(now.Add(time.Millisecond)) {
		t.Fatal("breaker still closed after threshold failures")
	}
	if got := b.State(now.Add(time.Millisecond)); got != breakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
}

func TestBreakerHalfOpenTrial(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(1, time.Second, 7)
	b.Failure(now)
	if b.Allow(now) {
		t.Fatal("breaker should be open immediately after tripping")
	}
	// The jittered cooldown is within [0.5, 1]·cooldown, so a full
	// cooldown later the trial window must be open.
	later := now.Add(time.Second)
	if !b.Allow(later) {
		t.Fatal("half-open trial window not reached after full cooldown")
	}
	if got := b.State(later); got != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	// A failed trial re-arms the cooldown.
	b.Failure(later)
	if b.Allow(later.Add(time.Millisecond)) {
		t.Fatal("failed half-open trial must re-open the breaker")
	}
	// A successful trial closes it.
	evenLater := later.Add(time.Second)
	if !b.Allow(evenLater) {
		t.Fatal("second trial window not reached")
	}
	b.Success()
	if got := b.State(evenLater); got != breakerClosed {
		t.Fatalf("state after trial success = %v, want closed", got)
	}
	if !b.Allow(evenLater) {
		t.Fatal("closed breaker must allow")
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Second, 7)
	b.Failure(now)
	b.Failure(now)
	b.Success()
	b.Failure(now)
	b.Failure(now)
	if !b.Allow(now) {
		t.Fatal("interleaved success must reset the consecutive-failure run")
	}
}

func TestBreakerCooldownJitterSeeded(t *testing.T) {
	now := time.Unix(1000, 0)
	until := func(seed uint64) time.Time {
		b := newBreaker(1, time.Second, seed)
		b.Failure(now)
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.until
	}
	a1, a2, b1 := until(3), until(3), until(4)
	if !a1.Equal(a2) {
		t.Fatal("same seed must give the same cooldown")
	}
	if a1.Equal(b1) {
		t.Fatal("different seeds should jitter the cooldown apart")
	}
	for _, u := range []time.Time{a1, b1} {
		d := u.Sub(now)
		if d < 500*time.Millisecond || d > time.Second {
			t.Fatalf("cooldown %v outside [0.5s, 1s]", d)
		}
	}
}

// Routers left on the zero seed must not re-probe a peer they saw fail
// together in lockstep: each draws its own jitter seed.
func TestZeroSeedRoutersJitterApart(t *testing.T) {
	peers := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	now := time.Unix(1000, 0)
	cooldowns := func() []time.Time {
		r := NewRouter(RouterConfig{ClientPeers: peers, Self: -1})
		defer r.Close()
		var out []time.Time
		for _, b := range r.breakers {
			for range 5 {
				b.Failure(now)
			}
			b.mu.Lock()
			out = append(out, b.until)
			b.mu.Unlock()
		}
		return out
	}
	a, b := cooldowns(), cooldowns()
	for i := range a {
		if a[i].Equal(b[i]) {
			t.Fatalf("breaker %d: two zero-seed routers armed the same %v cooldown", i, a[i].Sub(now))
		}
	}
}

func TestRingOwnersDistinctAndStable(t *testing.T) {
	r := NewRing(5)
	for _, id := range []string{"alpha", "beta", "gamma", "device-17"} {
		owners := r.Owners(id, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%q, 3) = %v, want 3 entries", id, owners)
		}
		if owners[0] != r.Owner(id) {
			t.Fatalf("Owners(%q)[0] = %d, Owner = %d", id, owners[0], r.Owner(id))
		}
		seen := map[int]bool{}
		for _, n := range owners {
			if n < 0 || n >= 5 {
				t.Fatalf("owner %d out of range", n)
			}
			if seen[n] {
				t.Fatalf("Owners(%q, 3) = %v has duplicates", id, owners)
			}
			seen[n] = true
		}
		again := r.Owners(id, 3)
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatalf("Owners(%q) unstable: %v then %v", id, owners, again)
			}
		}
	}
}

func TestRingOwnersClamped(t *testing.T) {
	r := NewRing(2)
	if got := r.Owners("x", 5); len(got) != 2 {
		t.Fatalf("Owners over a 2-node ring returned %v", got)
	}
	if got := r.Owners("x", 0); len(got) != 1 {
		t.Fatalf("Owners with k=0 returned %v, want the owner alone", got)
	}
}

func TestHealthTrackerEWMA(t *testing.T) {
	ht := newHealthTracker(2)
	now := time.Unix(1000, 0)
	ht.observe(0, 100*time.Millisecond, auth.PeerHealth{Primary: true}, now)
	st := ht.status(0)
	if st.RTT != 100*time.Millisecond {
		t.Fatalf("first observation RTT = %v, want 100ms", st.RTT)
	}
	ht.observe(0, 200*time.Millisecond, auth.PeerHealth{Primary: true}, now)
	st = ht.status(0)
	// 0.8·100ms + 0.2·200ms = 120ms.
	if st.RTT < 119*time.Millisecond || st.RTT > 121*time.Millisecond {
		t.Fatalf("EWMA RTT = %v, want ~120ms", st.RTT)
	}
	if !st.Known || !st.Primary {
		t.Fatalf("status = %+v, want known primary", st)
	}
}

func TestHealthTrackerStaleness(t *testing.T) {
	ht := newHealthTracker(3)
	now := time.Unix(1000, 0)
	if _, known := ht.staleness(0); known {
		t.Fatal("unprobed peer must report unknown staleness")
	}
	ht.observe(0, time.Millisecond, auth.PeerHealth{CommitSeq: 900, AppliedSeq: 100}, now)
	lag, known := ht.staleness(0)
	if !known || lag != 800 {
		t.Fatalf("staleness = (%d, %v), want (800, true)", lag, known)
	}
	// A primary is never stale, whatever its sequences say.
	ht.observe(1, time.Millisecond, auth.PeerHealth{Primary: true, CommitSeq: 900, AppliedSeq: 100}, now)
	lag, known = ht.staleness(1)
	if !known || lag != 0 {
		t.Fatalf("primary staleness = (%d, %v), want (0, true)", lag, known)
	}
	ht.observeFailure(2)
	ht.observeFailure(2)
	if st := ht.status(2); st.ConsecutiveFails != 2 {
		t.Fatalf("fails = %d, want 2", st.ConsecutiveFails)
	}
}
