package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/errormap"
	"repro/internal/fault"
	"repro/internal/mapkey"
	"repro/internal/rng"
	"repro/internal/wire"
)

const testSeed = 0xC1057E4

func testMap(lines, k int, seed uint64, vdds ...int) *errormap.Map {
	g := errormap.NewGeometry(lines)
	m := errormap.NewMap(g)
	r := rng.New(seed)
	for _, v := range vdds {
		m.AddPlane(v, errormap.RandomPlane(g, k, r))
	}
	return m
}

// testCluster is an in-process cluster with pre-bound replication
// listeners so every peer address is concrete before any node starts.
type testCluster struct {
	t     *testing.T
	nodes []*Node
	addrs []string
}

// startCluster brings up n nodes (node 0 primary). configure, when
// non-nil, adjusts each node's config before it opens (fault-injecting
// dialers, WAL options).
func startCluster(t *testing.T, ctx context.Context, n int, configure func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = l
		tc.addrs = append(tc.addrs, l.Addr().String())
	}
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		cfg := testNodeConfig(i, tc.addrs, filepath.Join(dir, fmt.Sprintf("node-%d", i)))
		cfg.ReplListener = lns[i]
		if configure != nil {
			configure(i, &cfg)
		}
		node, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(ctx); err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range tc.nodes {
			node.Close()
		}
	})
	return tc
}

func testNodeConfig(i int, addrs []string, dir string) Config {
	acfg := auth.DefaultConfig()
	acfg.ChallengeBits = 64
	return Config{
		NodeIndex:         i,
		Peers:             addrs,
		Dir:               dir,
		Auth:              acfg,
		Seed:              testSeed + uint64(i),
		ReplicaAcks:       1,
		AckTimeout:        time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseTimeout:      250 * time.Millisecond,
		RedialInterval:    20 * time.Millisecond,
		Logf:              nil,
	}
}

// waitUntil polls cond for up to d.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether follower has applied everything primary
// committed.
func caughtUp(primary, follower *Node) bool {
	return follower.AppliedSeq() >= primary.Status().CommitSeq
}

// authRoundTrip runs one full authentication against be.
func authRoundTrip(ctx context.Context, be auth.TxBackend, r *auth.Responder) (bool, error) {
	ch, err := be.BeginAuth(ctx, r.ID)
	if err != nil {
		return false, err
	}
	resp, err := r.Respond(ch)
	if err != nil {
		return false, err
	}
	v, err := be.FinishAuth(ctx, r.ID, ch.ID, resp)
	if err != nil {
		return false, err
	}
	return v.Accepted, nil
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	r1 := NewRing(3)
	r2 := NewRing(3)
	counts := make([]int, 3)
	for i := 0; i < 9000; i++ {
		id := fmt.Sprintf("device-%d", i)
		o := r1.Owner(id)
		if o2 := r2.Owner(id); o2 != o {
			t.Fatalf("ring not deterministic: %q -> %d vs %d", id, o, o2)
		}
		counts[o]++
	}
	for n, c := range counts {
		if c < 9000*15/100 {
			t.Errorf("node %d owns %d/9000 clients (<15%%): ring badly skewed %v", n, c, counts)
		}
	}
	if NewRing(1).Owner("anything") != 0 {
		t.Error("single-node ring must own everything")
	}
}

// TestReplicationAndFollowerReads enrolls through the primary,
// watches both followers converge, and then runs the read-scaled
// paths on a follower: delegated challenge issuance and fully local
// verification, including impostor rejection.
func TestReplicationAndFollowerReads(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := startCluster(t, ctx, 3, nil)
	primary := tc.nodes[0]

	id := auth.ClientID("dev-0")
	m := testMap(2048, 60, testSeed, 680, 700)
	key, err := primary.Server().Enroll(ctx, id, m, 700)
	if err != nil {
		t.Fatal(err)
	}
	r := auth.NewResponder(id, auth.NewSimDevice(m), key)

	// Primary path works as on a single node.
	ok, err := authRoundTrip(ctx, primary.Backend(), r)
	if err != nil || !ok {
		t.Fatalf("primary auth: ok=%v err=%v", ok, err)
	}

	for i := 1; i <= 2; i++ {
		f := tc.nodes[i]
		waitUntil(t, 5*time.Second, fmt.Sprintf("follower %d catch-up", i), func() bool { return caughtUp(primary, f) })
		if !f.Server().Enrolled(id) {
			t.Fatalf("follower %d missing enrollment", i)
		}
		fk, err := f.Server().CurrentKey(id)
		if err != nil || fk != key {
			t.Fatalf("follower %d key mismatch: %v", i, err)
		}
	}

	// Delegated issuance on a follower: challenge sampled locally,
	// burned on the primary, verified locally.
	follower := tc.nodes[1]
	for i := 0; i < 5; i++ {
		ok, err := authRoundTrip(ctx, follower.Backend(), r)
		if err != nil {
			t.Fatalf("delegated auth %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("delegated auth %d: genuine device rejected", i)
		}
	}

	// An impostor with wrong silicon must be rejected on the follower.
	wrong := testMap(2048, 60, testSeed+999, 680, 700)
	imp := auth.NewResponder(id, auth.NewSimDevice(wrong), key)
	ok, err = authRoundTrip(ctx, follower.Backend(), imp)
	if err != nil {
		t.Fatalf("impostor round trip errored: %v", err)
	}
	if ok {
		t.Fatal("impostor accepted on follower")
	}

	// The delegated burns replicate back: the other follower's replica
	// must converge to the same registry state.
	waitUntil(t, 5*time.Second, "follower 2 post-burn catch-up", func() bool { return caughtUp(primary, tc.nodes[2]) })
}

// TestPrimaryWithoutQuorumCannotAck is fencing by construction: a
// primary whose followers are gone must fail every mutation retryably
// rather than ack into a minority.
func TestPrimaryWithoutQuorumCannotAck(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testNodeConfig(0, []string{l.Addr().String(), "127.0.0.1:1"}, t.TempDir())
	cfg.ReplListener = l
	cfg.AckTimeout = 200 * time.Millisecond
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Start(ctx); err != nil {
		t.Fatal(err)
	}

	m := testMap(2048, 60, testSeed, 700)
	_, err = n.Server().Enroll(ctx, "lonely", m)
	if err == nil {
		t.Fatal("enrollment acked without any follower acknowledgement")
	}
	if auth.CodeOf(err) != auth.CodeUnavailable {
		t.Fatalf("unreplicated enrollment error code = %q, want unavailable (%v)", auth.CodeOf(err), err)
	}
	var ae *auth.AuthError
	if !errors.As(err, &ae) {
		t.Fatalf("untyped error %T: %v", err, err)
	}
	// The failed enrollment must have been backed out, not half-applied.
	if n.Server().Enrolled("lonely") {
		t.Fatal("failed enrollment left the client enrolled")
	}
}

// TestFailoverPromotesSuccessor kills the primary and asserts the
// successor promotes under a higher term, serves every durably-acked
// enrollment with the exact key, and the second follower re-homes to
// the new primary.
func TestFailoverPromotesSuccessor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tc := startCluster(t, ctx, 3, nil)
	primary := tc.nodes[0]

	keys := make(map[auth.ClientID]mapkey.Key)
	responders := make(map[auth.ClientID]*auth.Responder)
	for i := 0; i < 3; i++ {
		id := auth.ClientID(fmt.Sprintf("dev-%d", i))
		m := testMap(2048, 60, testSeed+uint64(i), 680, 700)
		key, err := primary.Server().Enroll(ctx, id, m, 700)
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = key
		responders[id] = auth.NewResponder(id, auth.NewSimDevice(m), key)
	}
	waitUntil(t, 5*time.Second, "followers catch up", func() bool {
		return caughtUp(primary, tc.nodes[1]) && caughtUp(primary, tc.nodes[2])
	})

	// Crash the primary.
	if err := primary.Close(); err != nil {
		t.Logf("primary close: %v", err)
	}

	successor := tc.nodes[1]
	waitUntil(t, 10*time.Second, "successor promotion", func() bool { return successor.Role() == RolePrimary })
	if got := successor.Term(); got < 2 {
		t.Fatalf("successor term = %d, want >= 2", got)
	}
	waitUntil(t, 10*time.Second, "follower 2 re-homes", func() bool {
		st := tc.nodes[2].Status()
		return st.PrimaryIndex == 1 && caughtUp(successor, tc.nodes[2])
	})

	// Every durably-acked enrollment is on the new primary with the
	// exact key, and still authenticates.
	for id, key := range keys {
		got, err := successor.Server().CurrentKey(id)
		if err != nil {
			t.Fatalf("%q lost across failover: %v", id, err)
		}
		if got != key {
			t.Fatalf("%q key diverged across failover", id)
		}
		ok, err := authRoundTrip(ctx, successor.Backend(), responders[id])
		if err != nil || !ok {
			t.Fatalf("%q auth on new primary: ok=%v err=%v", id, ok, err)
		}
	}

	// The re-homed follower serves delegated issuance off the new
	// primary.
	ok, err := authRoundTrip(ctx, tc.nodes[2].Backend(), responders["dev-0"])
	if err != nil || !ok {
		t.Fatalf("delegated auth via re-homed follower: ok=%v err=%v", ok, err)
	}
}

// TestFollowerResyncAfterPartition cuts one follower's replication
// link mid-stream, commits through the remaining quorum, heals, and
// asserts the cut follower converges to the exact primary state.
func TestFollowerResyncAfterPartition(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	part := fault.NewPartition()
	tc := startCluster(t, ctx, 3, func(i int, cfg *Config) {
		if i == 2 {
			cfg.Dial = part.Dial
		}
	})
	primary := tc.nodes[0]

	enroll := func(i int) (auth.ClientID, mapkey.Key) {
		id := auth.ClientID(fmt.Sprintf("dev-%d", i))
		m := testMap(2048, 60, testSeed+uint64(i), 700)
		key, err := primary.Server().Enroll(ctx, id, m)
		if err != nil {
			t.Fatalf("enroll %d: %v", i, err)
		}
		return id, key
	}
	enroll(0)
	waitUntil(t, 5*time.Second, "node 2 initial catch-up", func() bool { return caughtUp(primary, tc.nodes[2]) })

	part.Block()
	// Mutations keep committing through node 1's acknowledgements.
	id1, _ := enroll(1)
	id2, key2 := enroll(2)
	waitUntil(t, 5*time.Second, "node 1 catch-up during partition", func() bool { return caughtUp(primary, tc.nodes[1]) })
	if tc.nodes[2].Server().Enrolled(id2) {
		t.Fatal("partitioned follower saw a record through a blocked link")
	}

	part.Heal()
	waitUntil(t, 10*time.Second, "node 2 re-sync", func() bool { return caughtUp(primary, tc.nodes[2]) })
	for _, id := range []auth.ClientID{id1, id2} {
		if !tc.nodes[2].Server().Enrolled(id) {
			t.Fatalf("%q missing on re-synced follower", id)
		}
	}
	got, err := tc.nodes[2].Server().CurrentKey(id2)
	if err != nil || got != key2 {
		t.Fatalf("re-synced key mismatch: %v", err)
	}
}

// TestDeposedPrimaryStepsDownOnHigherTerm sends a replication hello
// carrying a future term straight at a primary and asserts it demotes
// itself and starts refusing mutations.
func TestDeposedPrimaryStepsDownOnHigherTerm(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testNodeConfig(0, []string{l.Addr().String(), "127.0.0.1:1"}, t.TempDir())
	cfg.ReplListener = l
	cfg.AckTimeout = 200 * time.Millisecond
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Start(ctx); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pre := wire.Preamble()
	buf := append([]byte{}, pre[:]...)
	buf = wire.AppendRepHello(buf, wire.RepHello{NodeIndex: 1, Term: 7})
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	waitUntil(t, 5*time.Second, "step-down", func() bool { return n.Role() == RoleFollower })
	if got := n.Term(); got < 7 {
		t.Fatalf("deposed term = %d, want >= 7", got)
	}
	m := testMap(2048, 60, testSeed, 700)
	if _, err := n.Server().Enroll(ctx, "late", m); auth.CodeOf(err) != auth.CodeUnavailable {
		t.Fatalf("mutation on deposed primary = %v, want unavailable", err)
	}
}
