package cluster

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
)

// openIdle opens a node without starting it, so tests can set
// replication state directly before driving the backend.
func openIdle(t *testing.T, nodeIndex int) *Node {
	t.Helper()
	acfg := auth.DefaultConfig()
	acfg.ChallengeBits = 64
	n, err := Open(Config{
		NodeIndex: nodeIndex,
		Peers:     []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		Dir:       t.TempDir(),
		Auth:      acfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func (n *Node) setLag(t *testing.T, lag uint64) {
	t.Helper()
	n.mu.Lock()
	n.lag = lag
	n.mu.Unlock()
}

func TestStalenessGuardRefusesLaggingFollower(t *testing.T) {
	n := openIdle(t, 1)
	n.setLag(t, maxStaleness+1)
	_, err := n.backend.BeginAuth(context.Background(), "cl")
	if err == nil {
		t.Fatalf("follower %d records behind a bound of %d served a read", maxStaleness+1, maxStaleness)
	}
	if !auth.Retryable(err) {
		t.Fatalf("stale refusal must be retryable, got %v", err)
	}
	if !strings.Contains(err.Error(), "staleness bound") {
		t.Fatalf("refusal is not the staleness guard's: %v", err)
	}

	// At or under the bound the guard passes; the request then fails
	// differently (no primary link on this idle node), proving the
	// refusal above came from the guard alone.
	n.setLag(t, maxStaleness)
	_, err = n.backend.BeginAuth(context.Background(), "cl")
	if err != nil && strings.Contains(err.Error(), "staleness bound") {
		t.Fatalf("guard fired at lag == bound: %v", err)
	}
}

func TestBackendHealthReport(t *testing.T) {
	follower := openIdle(t, 1)
	follower.mu.Lock()
	follower.appliedSeq = 40
	follower.lag = 7
	follower.mu.Unlock()
	h := follower.backend.Health()
	if h.Primary {
		t.Fatal("follower reported itself primary")
	}
	if h.AppliedSeq != 40 || h.CommitSeq != 47 {
		t.Fatalf("follower health = %+v, want applied 40 commit 47", h)
	}
	if h.Staleness() != 7 {
		t.Fatalf("Staleness() = %d, want 7", h.Staleness())
	}

	primary := openIdle(t, 0)
	h = primary.backend.Health()
	if !h.Primary || h.Term != 1 {
		t.Fatalf("primary health = %+v, want primary at term 1", h)
	}
	if h.Staleness() != 0 {
		t.Fatalf("primary Staleness() = %d, want 0", h.Staleness())
	}
}

// TestReadTargetsSelection pins the router's hedging candidate policy:
// open breakers are skipped everywhere, staleness only disqualifies
// the hedge fallback (the owner is authoritative and its own guard
// refuses), and self is never a forwarding target.
func TestReadTargetsSelection(t *testing.T) {
	r := NewRouter(RouterConfig{
		ClientPeers:      []string{"a", "b", "c"},
		Self:             -1,
		BreakerThreshold: 2,
	})
	now := time.Now()
	r.health.observe(1, time.Millisecond, auth.PeerHealth{CommitSeq: 50 + maxStaleness + 1, AppliedSeq: 50}, now)

	if got := r.readTargets([]int{0, 1}); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("stale hedge fallback not skipped: %v", got)
	}
	if got := r.readTargets([]int{1, 0}); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("stale owner must stay eligible (its guard decides): %v", got)
	}

	r.breakers[0].Failure(now)
	r.breakers[0].Failure(now)
	if got := r.readTargets([]int{0, 2}); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("open-breaker owner not skipped: %v", got)
	}
	if got := r.readTargets([]int{0, 1}); len(got) != 0 {
		t.Fatalf("open owner plus stale fallback should leave nothing: %v", got)
	}

	embedded := NewRouter(RouterConfig{
		ClientPeers: []string{"a", "b"},
		Self:        0,
	})
	if got := embedded.readTargets([]int{0, 1}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("self must be excluded from forwarded targets: %v", got)
	}
}
