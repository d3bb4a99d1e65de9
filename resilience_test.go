package authenticache_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	authenticache "repro"
	"repro/internal/fault"
)

// Resilience control plane, end to end: a router with failure
// detection, circuit breakers, hedged failover, and deadline budgets
// drives the 3-node chaos cluster while stall gates black-hole nodes
// and partitions flap. The invariants:
//
//   - an impostor is never accepted, whatever the fault schedule;
//   - a black-holed owner costs at most one hedge delay, not a hang:
//     reads fail over to the ring successor within the budget;
//   - once the breaker opens, requests stop paying the attempt
//     deadline at all (fail-fast for writes, successor-only reads);
//   - healing closes the breaker through background probes alone, and
//     every request completes within its deadline budget throughout.

// stalledRelayDial routes each node's relay connections through its
// stall gate. The relay handshake happens after the gated dial, so
// the attempt deadline is installed as a conn deadline for its
// duration — a gate that engages mid-construction surfaces a deadline
// error instead of pinning the attempt goroutine.
func stalledRelayDial(addrs []string, stalls []*fault.Stall) func(context.Context, string) (*authenticache.RelayClient, error) {
	idx := make(map[string]int, len(addrs))
	for i, a := range addrs {
		idx[a] = i
	}
	return func(ctx context.Context, addr string) (*authenticache.RelayClient, error) {
		conn, err := stalls[idx[addr]].Dial(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if dl, ok := ctx.Deadline(); ok {
			conn.SetDeadline(dl)
		}
		rc, err := authenticache.NewRelayClient(conn)
		if err != nil {
			conn.Close()
			return nil, err
		}
		conn.SetDeadline(time.Time{})
		return rc, nil
	}
}

// routerAuth runs one full authentication through the router.
func routerAuth(ctx context.Context, router *authenticache.Router, r *authenticache.Responder) (bool, error) {
	ch, err := router.BeginAuth(ctx, r.ID)
	if err != nil {
		return false, err
	}
	resp, err := r.Respond(ch)
	if err != nil {
		return false, err
	}
	v, err := router.FinishAuth(ctx, r.ID, ch.ID, resp)
	if err != nil {
		return false, err
	}
	return v.Accepted, nil
}

// routerAuthEventually retries routerAuth through transient chaos
// (the lossy node-0 listener, half-open trial windows), requiring each
// individual call to stay inside the budget bound and at least one to
// succeed.
func routerAuthEventually(t *testing.T, router *authenticache.Router, r *authenticache.Responder, tries int, perCall time.Duration) time.Duration {
	t.Helper()
	var lastErr error
	for i := 0; i < tries; i++ {
		start := time.Now()
		ok, err := routerAuth(ctx, router, r)
		elapsed := time.Since(start)
		if elapsed > perCall {
			t.Fatalf("routed auth call took %v, budget bound is %v (err=%v)", elapsed, perCall, err)
		}
		if err == nil && ok {
			return elapsed
		}
		if err == nil {
			t.Fatal("genuine device rejected through router")
		}
		var ae *authenticache.AuthError
		if !errors.As(err, &ae) {
			t.Fatalf("untyped router error %T: %v", err, err)
		}
		lastErr = err
	}
	t.Fatalf("routed auth failed %d times, last: %v", tries, lastErr)
	return 0
}

// routedOp runs one client operation the way a wire client consumes
// the router: a retryable unavailable is retried (fresh challenge,
// fresh relay) within the operation's deadline budget; a typed
// verdict or non-retryable refusal is final.
func routedOp(octx context.Context, router *authenticache.Router, r *authenticache.Responder) (bool, error) {
	var lastErr error
	for try := 0; try < 3 && octx.Err() == nil; try++ {
		ok, err := routerAuth(octx, router, r)
		if err == nil {
			return ok, nil
		}
		lastErr = err
		if !authenticache.Retryable(err) {
			return false, err
		}
	}
	return false, lastErr
}

func newResilientRouter(cn *clusterNodes, stalls []*fault.Stall) *authenticache.Router {
	return authenticache.NewRouter(authenticache.RouterConfig{
		ClientPeers:      cn.clientAddr,
		Self:             -1,
		Dial:             stalledRelayDial(cn.clientAddr, stalls),
		HedgeDelay:       15 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  150 * time.Millisecond,
		ProbeInterval:    30 * time.Millisecond,
		Budget: authenticache.DeadlineBudget{
			Floor:   50 * time.Millisecond,
			Default: 400 * time.Millisecond,
		},
		Seed: chaosSeed,
	})
}

func TestRouterHedgedFailover(t *testing.T) {
	cn := startChaosCluster(t)
	primary := cn.nodes[0]
	stalls := []*fault.Stall{fault.NewStall(), fault.NewStall(), fault.NewStall()}
	router := newResilientRouter(cn, stalls)
	defer router.Close()
	router.Start(ctx)

	id := authenticache.ClientID("hedge-0")
	m := chaosMap(4096, 80, chaosSeed+21, 700)
	key, err := primary.Server().Enroll(ctx, id, m)
	if err != nil {
		t.Fatal(err)
	}
	clusterWait(t, 10*time.Second, "replication catch-up", func() bool {
		return cn.nodes[1].AppliedSeq() >= primary.Status().CommitSeq &&
			cn.nodes[2].AppliedSeq() >= primary.Status().CommitSeq
	})
	r := authenticache.NewResponder(id, authenticache.NewSimDevice(m), key)

	owners := authenticache.NewRing(3).Owners(string(id), 2)
	owner, successor := owners[0], owners[1]
	if owner != router.Owner(id) {
		t.Fatalf("ring disagrees with router: owner %d vs %d", owners[0], router.Owner(id))
	}

	// The background prober populates the failure detector and sees
	// exactly the real role split.
	clusterWait(t, 5*time.Second, "probe coverage", func() bool {
		ps := router.Peers()
		return ps[0].Known && ps[1].Known && ps[2].Known
	})
	if ps := router.Peers(); !ps[0].Primary || ps[1].Primary || ps[2].Primary {
		t.Fatalf("detector role view wrong: %+v", ps)
	}

	routerAuthEventually(t, router, r, 8, 2*time.Second)

	// Black-hole the owner. Reads hedge to the successor: the whole
	// transaction completes despite a node that never answers and never
	// errors.
	stalls[owner].Block()
	hedged := routerAuthEventually(t, router, r, 8, 2*time.Second)
	t.Logf("hedged auth with stalled owner %d (successor %d): %v", owner, successor, hedged)

	// Probe failures alone open the owner's breaker.
	clusterWait(t, 5*time.Second, "owner breaker opens", func() bool {
		return router.Peers()[owner].Breaker == "open"
	})

	// With the breaker open the owner is skipped outright: successful
	// reads no longer pay the hedge wait against a dead socket. The
	// bound is far below the 400ms attempt allowance a stalled-owner
	// attempt would burn.
	fast := routerAuthEventually(t, router, r, 8, 2*time.Second)
	if fast > 300*time.Millisecond {
		t.Fatalf("open-breaker read took %v, want fail-fast (<300ms)", fast)
	}

	// Writes never hedge: with the owner's circuit open a key update
	// refuses immediately with a retryable unavailable.
	var fastFail error
	for i := 0; i < 10 && fastFail == nil; i++ {
		start := time.Now()
		_, err := router.BeginRemapTx(ctx, id)
		if err != nil && strings.Contains(err.Error(), "circuit open") {
			if el := time.Since(start); el > 100*time.Millisecond {
				t.Fatalf("breaker fail-fast took %v", el)
			}
			if !authenticache.Retryable(err) || !errors.Is(err, authenticache.ErrUnavailable) {
				t.Fatalf("fail-fast remap error not retryable unavailable: %v", err)
			}
			fastFail = err
		}
	}
	if fastFail == nil {
		t.Fatal("open breaker never fail-fasted a key update")
	}

	// Heal: probes close the breaker without any live-traffic trial,
	// and the owner serves again.
	stalls[owner].Heal()
	clusterWait(t, 5*time.Second, "owner breaker closes", func() bool {
		ps := router.Peers()[owner]
		return ps.Breaker == "closed" && ps.ConsecutiveFails == 0
	})
	routerAuthEventually(t, router, r, 8, 2*time.Second)
}

// TestClusterResilienceSoak is the chaos soak: mixed genuine and
// impostor traffic runs through the resilient router while a stall
// gate flaps one owner's client path and a partition flaps a
// follower's replication link. Zero forged accepts, every operation
// bounded by its deadline budget, full recovery after the storm.
func TestClusterResilienceSoak(t *testing.T) {
	const (
		clients   = 4
		opsPerCli = 30
		opBudget  = 3 * time.Second
	)
	cn := startChaosCluster(t)
	primary := cn.nodes[0]
	stalls := []*fault.Stall{fault.NewStall(), fault.NewStall(), fault.NewStall()}
	router := newResilientRouter(cn, stalls)
	defer router.Close()
	router.Start(ctx)

	keys := make(map[authenticache.ClientID]authenticache.Key, clients)
	responders := make([]*authenticache.Responder, clients)
	for i := 0; i < clients; i++ {
		id := authenticache.ClientID(fmt.Sprintf("soak-%d", i))
		m := chaosMap(4096, 80, chaosSeed+30+uint64(i), 700)
		key, err := primary.Server().Enroll(ctx, id, m)
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = key
		responders[i] = authenticache.NewResponder(id, authenticache.NewSimDevice(m), key)
	}
	clusterWait(t, 10*time.Second, "replication catch-up", func() bool {
		return cn.nodes[1].AppliedSeq() >= primary.Status().CommitSeq &&
			cn.nodes[2].AppliedSeq() >= primary.Status().CommitSeq
	})

	var (
		okOps, failedOps atomic.Uint64
		rejected, forged atomic.Uint64
		untypedErr       atomic.Uint64
		latMu            sync.Mutex
		latencies        []time.Duration
	)
	record := func(d time.Duration) {
		latMu.Lock()
		latencies = append(latencies, d)
		latMu.Unlock()
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := responders[i]
			for op := 0; op < opsPerCli; op++ {
				octx, cancel := context.WithTimeout(ctx, opBudget)
				start := time.Now()
				ok, err := routedOp(octx, router, r)
				elapsed := time.Since(start)
				cancel()
				record(elapsed)
				switch {
				case err != nil:
					if n := failedOps.Add(1); n <= 12 {
						t.Logf("client %d op %d failed (%v): %v", i, op, elapsed, err)
					}
					var ae *authenticache.AuthError
					if !errors.As(err, &ae) {
						untypedErr.Add(1)
						t.Errorf("client %d op %d: untyped error %T: %v", i, op, err, err)
					}
				case !ok:
					rejected.Add(1)
					t.Errorf("client %d op %d: genuine device rejected", i, op)
				default:
					okOps.Add(1)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrong := chaosMap(4096, 80, chaosSeed+998, 680, 700)
		imp := authenticache.NewResponder("soak-0", authenticache.NewSimDevice(wrong), keys["soak-0"])
		for op := 0; op < opsPerCli; op++ {
			octx, cancel := context.WithTimeout(ctx, opBudget)
			ok, err := routedOp(octx, router, imp)
			cancel()
			if ok {
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
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The fault schedule: the owner of soak-0 flaps in and out of a
	// black hole on its client path while node 2's replication link
	// flaps. Down windows stay under the lease horizon so no failover
	// is provoked — this is degradation, not promotion.
	flapNode := router.Owner("soak-0")
	wg.Add(1)
	go func() {
		defer wg.Done()
		fault.Flap(ctx, stalls[flapNode], fault.FlapPlan{
			Down: 120 * time.Millisecond, Up: 100 * time.Millisecond,
			Cycles: 4, Jitter: 0.3, Seed: chaosSeed + 1,
		})
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		fault.Flap(ctx, cn.gateTo0[2], fault.FlapPlan{
			Down: 150 * time.Millisecond, Up: 150 * time.Millisecond,
			Cycles: 3, Seed: chaosSeed + 2,
		})
	}()
	wg.Wait()

	total := okOps.Load() + failedOps.Load() + rejected.Load()
	if total != clients*opsPerCli {
		t.Fatalf("accounted %d ops, want %d", total, clients*opsPerCli)
	}
	if forged.Load() != 0 {
		t.Errorf("%d forged accepts", forged.Load())
	}
	if untypedErr.Load() != 0 {
		t.Errorf("%d untyped errors surfaced", untypedErr.Load())
	}
	if ratio := float64(okOps.Load()) / float64(total); ratio < 0.7 {
		t.Errorf("success ratio %.4f < 0.7 under flapping faults (ok=%d failed=%d)",
			ratio, okOps.Load(), failedOps.Load())
	}

	// Bounded latency: every operation — including those that ran into
	// the black hole — completed within its deadline budget; nothing
	// hung.
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	p50 := latencies[len(latencies)/2]
	p99 := latencies[len(latencies)*99/100]
	worst := latencies[len(latencies)-1]
	t.Logf("soak latency: p50=%v p99=%v max=%v ok=%d failed=%d",
		p50, p99, worst, okOps.Load(), failedOps.Load())
	if worst > opBudget+500*time.Millisecond {
		t.Errorf("operation outlived its deadline budget: %v", worst)
	}

	// No failover was provoked: the storm degraded service, it did not
	// depose the primary.
	if cn.nodes[0].Role() != authenticache.RolePrimary {
		t.Fatal("primary deposed by a sub-lease flap schedule")
	}

	// Recovery: probes close every breaker and all clients
	// authenticate again.
	clusterWait(t, 10*time.Second, "breakers close after storm", func() bool {
		for _, ps := range router.Peers() {
			if ps.Breaker != "closed" || !ps.Known {
				return false
			}
		}
		return true
	})
	for _, r := range responders {
		routerAuthEventually(t, router, r, 8, 2*time.Second)
	}
}
