package authenticache_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	authenticache "repro"
	"repro/internal/fault"
)

// Cluster chaos: a 3-node replicated deployment driven through the
// public API while the fault package cuts replication links and the
// client wire drops connections. The invariants extend the
// single-node chaos suite across the fleet:
//
//   - the chaos traffic mix pushes ≥99% of transactions through a
//     lossy wire while one follower's replication link is partitioned
//     and healed mid-run;
//   - an impostor is never accepted, on any node, before or after
//     failover;
//   - killing the primary promotes the successor, and every
//     durably-acked enrollment is on it with the exact key;
//   - the deposed primary is fenced: with no followers to acknowledge
//     its records it cannot durably accept mutations.

// clusterNodes is a 3-node in-process cluster plus the per-link
// partition gates the chaos schedule drives.
type clusterNodes struct {
	nodes      []*authenticache.ClusterNode
	replAddrs  []string
	clientAddr []string
	wss        []*authenticache.WireServer
	// gateTo0[i] cuts node i's replication dials toward node 0.
	gateTo0 map[int]*fault.Partition
}

// gatedDial routes dials to gated addresses through their partition;
// everything else dials straight.
func gatedDial(gates map[string]*fault.Partition) authenticache.ClusterDialFunc {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		if p, ok := gates[addr]; ok {
			return p.Dial(ctx, network, addr)
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
}

// startChaosCluster brings up three nodes (node 0 primary) with
// client-facing wire servers; node 0's sits behind a lossy listener.
func startChaosCluster(t *testing.T) *clusterNodes {
	t.Helper()
	cn := &clusterNodes{gateTo0: make(map[int]*fault.Partition)}
	repl := make([]net.Listener, 3)
	client := make([]net.Listener, 3)
	for i := 0; i < 3; i++ {
		for _, slot := range []*net.Listener{&repl[i], &client[i]} {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			*slot = l
		}
		cn.replAddrs = append(cn.replAddrs, repl[i].Addr().String())
		cn.clientAddr = append(cn.clientAddr, client[i].Addr().String())
	}
	// The default 256-bit challenges: the forge gates assert zero
	// impostor accepts, and at the equal-error-rate threshold an
	// impostor passes a 64-bit challenge (≤16 of 64 bits off) with
	// probability 4.4e-4 per attempt, a 256-bit one (≤64 of 256) with
	// 3.4e-12.
	acfg := authenticache.DefaultServerConfig()
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		cfg := authenticache.ClusterConfig{
			NodeIndex:         i,
			Peers:             cn.replAddrs,
			ClientPeers:       cn.clientAddr,
			Dir:               filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			Auth:              acfg,
			Seed:              chaosSeed + uint64(i),
			ReplicaAcks:       1,
			AckTimeout:        time.Second,
			HeartbeatInterval: 25 * time.Millisecond,
			LeaseTimeout:      500 * time.Millisecond,
			RedialInterval:    25 * time.Millisecond,
			ReplListener:      repl[i],
		}
		if i != 0 {
			gate := fault.NewPartition()
			cn.gateTo0[i] = gate
			cfg.Dial = gatedDial(map[string]*fault.Partition{cn.replAddrs[0]: gate})
		}
		n, err := authenticache.OpenClusterNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(ctx); err != nil {
			t.Fatal(err)
		}
		cn.nodes = append(cn.nodes, n)

		ws, err := authenticache.NewWireServerBackend(n.Backend(), authenticache.WireConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ln := client[i]
		if i == 0 {
			ln = fault.NewListener(ln, fault.ConnPlan{DropProb: 0.1, Seed: chaosSeed})
		}
		go ws.Serve(ctx, ln)
		cn.wss = append(cn.wss, ws)
	}
	t.Cleanup(func() {
		for i := range cn.nodes {
			cn.wss[i].Close()
			cn.nodes[i].Close()
		}
	})
	return cn
}

// clusterWait polls cond for up to d.
func clusterWait(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClusterChaosFailover(t *testing.T) {
	const (
		clients   = 4
		opsPerCli = 25
	)
	cn := startChaosCluster(t)
	primary := cn.nodes[0]

	// Enroll the chaos fleet on the primary.
	keys := make(map[authenticache.ClientID]authenticache.Key, clients)
	responders := make([]*authenticache.Responder, clients)
	for i := 0; i < clients; i++ {
		id := authenticache.ClientID(fmt.Sprintf("cl-%d", i))
		m := chaosMap(4096, 80, chaosSeed+uint64(i), 680, 700)
		key, err := primary.Server().Enroll(ctx, id, m, 700)
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = key
		responders[i] = authenticache.NewResponder(id, authenticache.NewSimDevice(m), key)
	}

	// Storm: the mixed traffic runs against the primary's lossy wire
	// while, mid-run, node 2's replication link is cut, two clients are
	// enrolled through the remaining quorum, and the link heals.
	var (
		okOps, failedOps atomic.Uint64
		untypedErr       atomic.Uint64
		forged           atomic.Uint64
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := responders[i]
			rc, err := authenticache.DialResilient(ctx, cn.clientAddr[0], chaosPolicy(chaosSeed+uint64(i)))
			if err != nil {
				t.Errorf("client %d: dial: %v", i, err)
				return
			}
			defer rc.Close()
			for op := 0; op < opsPerCli; op++ {
				var err error
				var accepted bool
				if op%7 == 6 {
					err = rc.Remap(ctx, r)
					accepted = err == nil
				} else {
					accepted, err = rc.Authenticate(ctx, r)
				}
				switch {
				case err != nil:
					failedOps.Add(1)
					var ae *authenticache.AuthError
					if !errors.As(err, &ae) {
						untypedErr.Add(1)
						t.Errorf("client %d op %d: untyped error %T: %v", i, op, err, err)
					}
				case !accepted:
					failedOps.Add(1)
					t.Errorf("client %d op %d: genuine device rejected", i, op)
				default:
					okOps.Add(1)
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrong := chaosMap(4096, 80, chaosSeed+999, 680, 700)
		imp := authenticache.NewResponder("cl-0", authenticache.NewSimDevice(wrong), keys["cl-0"])
		rc, err := authenticache.DialResilient(ctx, cn.clientAddr[0], chaosPolicy(chaosSeed+99))
		if err != nil {
			t.Errorf("impostor dial: %v", err)
			return
		}
		defer rc.Close()
		for op := 0; op < opsPerCli; op++ {
			accepted, err := rc.Authenticate(ctx, imp)
			if accepted {
				forged.Add(1)
				t.Errorf("impostor accepted on op %d", op)
			}
			if err != nil {
				var ae *authenticache.AuthError
				if !errors.As(err, &ae) {
					untypedErr.Add(1)
					t.Errorf("impostor op %d: untyped error %T: %v", op, err, err)
				}
			}
		}
	}()

	// Mid-storm partition: cut node 2's replication link, enroll two
	// clients through node 1's acknowledgements, heal. The window stays
	// well under the lease horizon so only real primary loss promotes.
	partKeys := make(map[authenticache.ClientID]authenticache.Key, 2)
	cn.gateTo0[2].Block()
	for i := 0; i < 2; i++ {
		id := authenticache.ClientID(fmt.Sprintf("part-%d", i))
		m := chaosMap(4096, 80, chaosSeed+100+uint64(i), 700)
		key, err := primary.Server().Enroll(ctx, id, m)
		if err != nil {
			t.Fatalf("enroll during partition: %v", err)
		}
		partKeys[id] = key
	}
	cn.gateTo0[2].Heal()
	wg.Wait()

	total := okOps.Load() + failedOps.Load()
	if total != clients*opsPerCli {
		t.Fatalf("accounted %d ops, want %d", total, clients*opsPerCli)
	}
	if ratio := float64(okOps.Load()) / float64(total); ratio < 0.99 {
		t.Errorf("eventual success ratio %.4f < 0.99 (ok=%d failed=%d)",
			ratio, okOps.Load(), failedOps.Load())
	}
	if forged.Load() != 0 {
		t.Errorf("%d forged accepts", forged.Load())
	}
	if untypedErr.Load() != 0 {
		t.Errorf("%d untyped errors surfaced", untypedErr.Load())
	}

	// The cut follower re-syncs: both partition-window enrollments land
	// on node 2 with exact keys.
	clusterWait(t, 10*time.Second, "node 2 re-sync", func() bool {
		return cn.nodes[2].AppliedSeq() >= primary.Status().CommitSeq
	})
	for id, key := range partKeys {
		got, err := cn.nodes[2].Server().CurrentKey(id)
		if err != nil || got != key {
			t.Fatalf("%q on re-synced follower: key mismatch (%v)", id, err)
		}
	}

	// Read-scaled issuance: a client authenticates through follower
	// node 2's public wire (challenge sampled on the follower, burned on
	// the primary, verified on the follower).
	func() {
		rc, err := authenticache.DialResilient(ctx, cn.clientAddr[2], chaosPolicy(chaosSeed+7))
		if err != nil {
			t.Fatalf("follower dial: %v", err)
		}
		defer rc.Close()
		okAuth, err := rc.Authenticate(ctx, responders[1])
		if err != nil || !okAuth {
			t.Fatalf("delegated auth via follower wire: ok=%v err=%v", okAuth, err)
		}
	}()

	// Kill the primary: cut both followers' replication links. Node 1's
	// lease expires and it promotes; node 2 re-homes to it.
	cn.gateTo0[1].Block()
	cn.gateTo0[2].Block()
	clusterWait(t, 15*time.Second, "successor promotion", func() bool {
		return cn.nodes[1].Role() == authenticache.RolePrimary
	})
	if term := cn.nodes[1].Term(); term < 2 {
		t.Fatalf("promoted term = %d, want >= 2", term)
	}
	clusterWait(t, 15*time.Second, "node 2 re-homes", func() bool {
		st := cn.nodes[2].Status()
		return st.PrimaryIndex == 1 && cn.nodes[2].AppliedSeq() >= cn.nodes[1].Status().CommitSeq
	})

	// Every durably-acked enrollment survives failover with its exact
	// current key, and every genuine device still authenticates against
	// the new primary's public wire.
	successor := cn.nodes[1]
	for id, key := range partKeys {
		got, err := successor.Server().CurrentKey(id)
		if err != nil || got != key {
			t.Fatalf("%q lost across failover (%v)", id, err)
		}
	}
	func() {
		rc, err := authenticache.DialResilient(ctx, cn.clientAddr[1], chaosPolicy(chaosSeed+8))
		if err != nil {
			t.Fatalf("successor dial: %v", err)
		}
		defer rc.Close()
		for i, r := range responders {
			okAuth, err := rc.Authenticate(ctx, r)
			if err != nil || !okAuth {
				t.Fatalf("client %d auth on successor: ok=%v err=%v", i, okAuth, err)
			}
			wrong := chaosMap(4096, 80, chaosSeed+999, 680, 700)
			imp := authenticache.NewResponder(r.ID, authenticache.NewSimDevice(wrong), keys[r.ID])
			if okImp, _ := rc.Authenticate(ctx, imp); okImp {
				t.Fatalf("impostor accepted on successor as %q", r.ID)
			}
		}
	}()

	// The deposed primary is fenced: with no follower acknowledgements
	// it cannot durably accept a mutation.
	if _, err := primary.Server().Enroll(ctx, "fenced", chaosMap(4096, 80, chaosSeed+50, 700)); err == nil {
		t.Fatal("deposed primary durably acked an enrollment")
	} else if !errors.Is(err, authenticache.ErrUnavailable) {
		t.Fatalf("fenced enrollment error = %v, want unavailable", err)
	}
}

// TestClusterRouter spreads clients over the fleet by consistent hash
// and forwards transactions to each owner through the router backend,
// including owners that are followers (who delegate issuance).
func TestClusterRouter(t *testing.T) {
	cn := startChaosCluster(t)
	primary := cn.nodes[0]

	router := authenticache.NewRouter(authenticache.RouterConfig{
		ClientPeers: cn.clientAddr,
		Self:        -1,
	})
	defer router.Close()

	for i := 0; i < 6; i++ {
		id := authenticache.ClientID(fmt.Sprintf("routed-%d", i))
		m := chaosMap(4096, 80, chaosSeed+uint64(i), 700)
		key, err := primary.Server().Enroll(ctx, id, m)
		if err != nil {
			t.Fatal(err)
		}
		clusterWait(t, 10*time.Second, "replication catch-up", func() bool {
			return cn.nodes[1].AppliedSeq() >= primary.Status().CommitSeq &&
				cn.nodes[2].AppliedSeq() >= primary.Status().CommitSeq
		})
		r := authenticache.NewResponder(id, authenticache.NewSimDevice(m), key)
		ch, err := router.BeginAuth(ctx, id)
		if err != nil {
			t.Fatalf("routed begin (owner %d): %v", router.Owner(id), err)
		}
		resp, err := r.Respond(ch)
		if err != nil {
			t.Fatal(err)
		}
		v, err := router.FinishAuth(ctx, id, ch.ID, resp)
		if err != nil {
			t.Fatalf("routed finish (owner %d): %v", router.Owner(id), err)
		}
		if !v.Accepted {
			t.Fatalf("genuine device rejected via router (owner %d)", router.Owner(id))
		}
	}
}
