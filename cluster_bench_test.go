package authenticache_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	authenticache "repro"
	"repro/internal/auth"
	"repro/internal/fault"
)

// BenchmarkClusterAuth measures what replication costs — and what
// follower read-scaling buys back — on the hot issue→verify path for
// ONE hot client. A single client is the worst case for a single
// node: every transaction serialises on that client's record lock. A
// replicated fleet spreads the serial section: followers sample
// challenges and verify responses against their own replicas (their
// own record locks), touching the primary only for the pair burn.
//
//   - single-node: a 1-node cluster (no replication), the baseline;
//   - replicated-3/primary: a 3-node cluster with every transaction
//     on the primary — the pure replication tax (quorum ack per burn);
//   - replicated-3/followers: the same fleet with client traffic on
//     the two followers only — delegated issuance plus local
//     verification against their replicas, the primary reduced to
//     burning pairs.
//
// The rtt=1ms variants put a modelled 1 ms round trip on the
// replication link (fault.DelayConn, same regime as the wire bench).
// That is where read-scaling pays: every burn holds the client's
// record lock across the quorum ack, so a primary serving everything
// serialises sampling and verification behind that wait, while spread
// followers do both against their own replicas during it.
//
// Challenge pairs burn forever, so run with a fixed -benchtime
// iteration count (scripts/bench_cluster.sh regenerates
// BENCH_cluster.json from this).
func BenchmarkClusterAuth(b *testing.B) {
	b.Run("single-node", func(b *testing.B) { benchClusterAuth(b, 1, false, 0) })
	b.Run("replicated-3/primary", func(b *testing.B) { benchClusterAuth(b, 3, false, 0) })
	b.Run("replicated-3/followers", func(b *testing.B) { benchClusterAuth(b, 3, true, 0) })
	const rtt = time.Millisecond
	b.Run("replicated-3/rtt=1ms/primary", func(b *testing.B) { benchClusterAuth(b, 3, false, rtt) })
	b.Run("replicated-3/rtt=1ms/followers", func(b *testing.B) { benchClusterAuth(b, 3, true, rtt) })
}

// BenchmarkClusterPrimaryCost decomposes the primary's per-issuance
// cost, which bounds how far follower issuance scales the fleet:
//
//   - full-issue: everything a single node does per transaction —
//     sample, burn, journal, and verify;
//   - burn-only: what the primary does when a follower issues — just
//     validate + burn + journal (ApproveBurn); sampling and
//     verification moved to the follower's replica.
//
// Fleet issuance capacity is min(primary burn-only rate, N × follower
// rate): the full-issue / burn-only ratio is the headroom follower
// read-scaling buys before the primary saturates. Measured this way
// because a single-core runner cannot exhibit wall-clock parallelism;
// the serial-section shrink is the machine-independent quantity.
func BenchmarkClusterPrimaryCost(b *testing.B) {
	b.Run("full-issue", func(b *testing.B) { benchPrimaryCost(b, false) })
	b.Run("burn-only", func(b *testing.B) { benchPrimaryCost(b, true) })
}

func benchPrimaryCost(b *testing.B, burnOnly bool) {
	acfg := auth.DefaultConfig()
	acfg.ChallengeBits = 128
	acfg.RemapAfterCRPs = 1 << 31
	maxIters := int(authenticache.PossibleCRPs(clusterBenchLines)) / acfg.ChallengeBits / 2
	if b.N > maxIters {
		b.Skipf("b.N=%d would exhaust the CRP registry; use a fixed -benchtime (scripts/bench_cluster.sh)", b.N)
	}

	// Primary and follower replicas built from the same enrollment, no
	// network: this isolates the serial cost, not transport.
	const id = auth.ClientID("bench-hot")
	m := chaosMap(clusterBenchLines, 100, 4242, 680)
	primary := auth.NewServer(acfg, 4242)
	key, err := primary.Enroll(dctx, id, m)
	if err != nil {
		b.Fatal(err)
	}
	follower := auth.NewServer(acfg, 4242)
	var snap bytes.Buffer
	if err := primary.SaveState(&snap); err != nil {
		b.Fatal(err)
	}
	if err := follower.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		b.Fatal(err)
	}
	r := auth.NewResponder(id, auth.NewSimDevice(m), key)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if burnOnly {
			b.StopTimer()
			prop, err := follower.SampleChallenge(dctx, id)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			chID, err := primary.ApproveBurn(dctx, id, prop.Phys, prop.KeySum)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			ch, err := follower.CommitDelegated(dctx, id, chID, prop)
			if err != nil {
				b.Fatal(err)
			}
			resp, err := r.Respond(ch)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := follower.Verify(dctx, id, ch.ID, resp); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		} else {
			ch, err := primary.IssueChallenge(dctx, id)
			if err != nil {
				b.Fatal(err)
			}
			resp, err := r.Respond(ch)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := primary.Verify(dctx, id, ch.ID, resp); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkClusterFailover measures what a dead node costs the read
// path, as a latency distribution rather than a throughput number:
//
//   - healthy: router-forwarded authentication against a 3-node
//     fleet with every node answering — the routing baseline;
//   - owner-stalled: the hot client's owner is black-holed (never
//     answers, never errors) for the whole timed run. The first
//     operations pay one hedge delay each while the failure detector
//     gathers probe evidence; once the breaker opens the owner is
//     skipped outright and operations run at successor speed, with
//     periodic half-open trials re-paying the hedge.
//
// p50 is therefore the steady state after detection and p99 the
// failover transient (hedge windows and half-open trials) — the
// "node kill" tail a deadline-budgeted caller actually observes.
// Fixed -benchtime only, like the other cluster benches.
func BenchmarkClusterFailover(b *testing.B) {
	b.Run("healthy", func(b *testing.B) { benchClusterFailover(b, false) })
	b.Run("owner-stalled", func(b *testing.B) { benchClusterFailover(b, true) })
}

func benchClusterFailover(b *testing.B, stallOwner bool) {
	acfg := authenticache.DefaultServerConfig()
	acfg.ChallengeBits = 128
	acfg.RemapAfterCRPs = 1 << 31
	maxIters := int(authenticache.PossibleCRPs(clusterBenchLines)) / acfg.ChallengeBits / 2
	if b.N > maxIters {
		b.Skipf("b.N=%d would exhaust the CRP registry; use a fixed -benchtime (scripts/bench_cluster.sh)", b.N)
	}

	const nodeCount = 3
	nodes, clientAddrs := startClientFleet(b, acfg, nodeCount)
	primary := nodes[0]

	stalls := make([]*fault.Stall, nodeCount)
	for i := range stalls {
		stalls[i] = fault.NewStall()
	}
	router := authenticache.NewRouter(authenticache.RouterConfig{
		ClientPeers:      clientAddrs,
		Self:             -1,
		Dial:             stalledRelayDial(clientAddrs, stalls),
		HedgeDelay:       10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
		ProbeInterval:    25 * time.Millisecond,
		Budget: authenticache.DeadlineBudget{
			Floor:   50 * time.Millisecond,
			Default: 250 * time.Millisecond,
		},
		Seed: 4242,
	})
	defer router.Close()
	router.Start(dctx)

	const id = authenticache.ClientID("bench-hot")
	m := chaosMap(clusterBenchLines, 100, 4242, 680)
	key, err := primary.Server().Enroll(dctx, id, m)
	if err != nil {
		b.Fatal(err)
	}
	r := authenticache.NewResponder(id, authenticache.NewSimDevice(m), key)
	for _, n := range nodes {
		for !n.Server().Enrolled(id) {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Warm the relay pool and the failure detector: every peer probed,
	// one full transaction through the router.
	for deadline := time.Now().Add(10 * time.Second); ; {
		ps := router.Peers()
		if ps[0].Known && ps[1].Known && ps[2].Known {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("prober never covered the fleet")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ok, err := routerAuth(dctx, router, r); err != nil || !ok {
		b.Fatalf("warmup auth: ok=%v err=%v", ok, err)
	}

	owner := router.Owner(id)
	if stallOwner {
		stalls[owner].Block()
		defer stalls[owner].Heal()
	}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		ok, err := routerAuth(dctx, router, r)
		if err != nil {
			b.Fatalf("op %d: %v", i, err)
		}
		if !ok {
			b.Fatalf("op %d: genuine device rejected", i)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(a, c int) bool { return lat[a] < lat[c] })
	b.ReportMetric(float64(lat[len(lat)/2])/1e6, "p50_ms")
	b.ReportMetric(float64(lat[len(lat)*99/100])/1e6, "p99_ms")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkClusterRemap measures a routed key update end to end: the
// router relays the opening half to the device's owner, the device
// derives the new key from the remap challenge, and the router relays
// the commit.
//
//   - primary-owned: the owner is the primary, which runs the update
//     itself (router → primary);
//   - follower-owned: the owner is a follower, which forwards the
//     update whole to the primary (router → follower → primary), so
//     the remap challenge crosses one more hop.
//
// Reserved-plane challenges burn no registry pairs, so any iteration
// count works; p50_ms is the median key update.
func BenchmarkClusterRemap(b *testing.B) {
	b.Run("primary-owned", func(b *testing.B) { benchClusterRemap(b, true) })
	b.Run("follower-owned", func(b *testing.B) { benchClusterRemap(b, false) })
}

func benchClusterRemap(b *testing.B, primaryOwned bool) {
	// perfbench's fleet geometry: 1 MiB caches, authentication planes
	// at 660 and 680 mV, the reserved plane at 700.
	const lines = 16384
	nodes, clientAddrs := startClientFleet(b, authenticache.DefaultServerConfig(), 3)
	router := authenticache.NewRouter(authenticache.RouterConfig{
		ClientPeers: clientAddrs,
		Self:        -1,
		Seed:        4242,
	})
	defer router.Close()
	router.Start(dctx)

	var id authenticache.ClientID
	for i := 0; id == ""; i++ {
		cand := authenticache.ClientID(fmt.Sprintf("bench-remap-%d", i))
		if (router.Owner(cand) == 0) == primaryOwned {
			id = cand
		}
	}
	m := chaosMap(lines, 100, 4242, 660, 680, 700)
	key, err := nodes[0].Server().Enroll(dctx, id, m, 700)
	if err != nil {
		b.Fatal(err)
	}
	r := authenticache.NewResponder(id, authenticache.NewSimDevice(m), key)
	for _, n := range nodes {
		for !n.Server().Enrolled(id) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	remap := func() error {
		req, err := router.BeginRemapTx(dctx, id)
		if err != nil {
			return err
		}
		derr := r.HandleRemap(req)
		if err := router.FinishRemapTx(dctx, id, derr == nil); err != nil {
			return err
		}
		return derr
	}
	// Warm the relay connections and the device's reserved-plane field.
	if err := remap(); err != nil {
		b.Fatal(err)
	}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := remap(); err != nil {
			b.Fatalf("key update %d: %v", i, err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(a, c int) bool { return lat[a] < lat[c] })
	b.ReportMetric(float64(lat[len(lat)/2])/1e6, "p50_ms")
}

// startClientFleet starts a cluster of nodeCount nodes, each serving
// clients on its own listener as a router reaches them, and returns
// the nodes (node 0 primary) with their client addresses. Everything
// closes when the benchmark ends.
func startClientFleet(b *testing.B, acfg authenticache.ServerConfig, nodeCount int) ([]*authenticache.ClusterNode, []string) {
	repl := make([]net.Listener, nodeCount)
	client := make([]net.Listener, nodeCount)
	replAddrs := make([]string, nodeCount)
	clientAddrs := make([]string, nodeCount)
	for i := 0; i < nodeCount; i++ {
		for _, slot := range []*net.Listener{&repl[i], &client[i]} {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			*slot = l
		}
		replAddrs[i] = repl[i].Addr().String()
		clientAddrs[i] = client[i].Addr().String()
	}
	dir := b.TempDir()
	nodes := make([]*authenticache.ClusterNode, nodeCount)
	for i := range nodes {
		n, err := authenticache.OpenClusterNode(authenticache.ClusterConfig{
			NodeIndex:         i,
			Peers:             replAddrs,
			ClientPeers:       clientAddrs,
			Dir:               filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			Auth:              acfg,
			Seed:              4242 + uint64(i),
			ReplicaAcks:       1,
			AckTimeout:        5 * time.Second,
			HeartbeatInterval: 25 * time.Millisecond,
			LeaseTimeout:      5 * time.Second,
			RedialInterval:    25 * time.Millisecond,
			ReplListener:      repl[i],
			WAL:               authenticache.WALOptions{FlushBatch: 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := n.Start(dctx); err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
		b.Cleanup(func() { n.Close() })
		ws, err := authenticache.NewWireServerBackend(n.Backend(), authenticache.WireConfig{})
		if err != nil {
			b.Fatal(err)
		}
		go ws.Serve(dctx, client[i])
		b.Cleanup(func() { ws.Close() })
	}
	return nodes, clientAddrs
}

const clusterBenchLines = 2048

func benchClusterAuth(b *testing.B, nodeCount int, spread bool, replRTT time.Duration) {
	acfg := authenticache.DefaultServerConfig()
	acfg.ChallengeBits = 128
	// A rotation mid-benchmark would splice a remap transaction into
	// the timed loop; a time-based -benchtime could exhaust the hot
	// client's pair space.
	acfg.RemapAfterCRPs = 1 << 31
	maxIters := int(authenticache.PossibleCRPs(clusterBenchLines)) / acfg.ChallengeBits / 2
	if b.N > maxIters {
		b.Skipf("b.N=%d would exhaust the CRP registry; use a fixed -benchtime (scripts/bench_cluster.sh)", b.N)
	}

	lns := make([]net.Listener, nodeCount)
	addrs := make([]string, nodeCount)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = l
		addrs[i] = l.Addr().String()
	}
	// The follower side of the replication link carries the acks and
	// burn proposals; delaying its writes models the full round trip
	// (the primary-to-follower stream stays direct).
	var dial authenticache.ClusterDialFunc
	if replRTT > 0 {
		dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return fault.NewDelayConn(conn, replRTT), nil
		}
	}
	dir := b.TempDir()
	nodes := make([]*authenticache.ClusterNode, nodeCount)
	for i := range nodes {
		n, err := authenticache.OpenClusterNode(authenticache.ClusterConfig{
			NodeIndex:         i,
			Peers:             addrs,
			Dir:               filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			Auth:              acfg,
			Seed:              4242 + uint64(i),
			ReplicaAcks:       min(1, nodeCount-1),
			AckTimeout:        5 * time.Second,
			HeartbeatInterval: 25 * time.Millisecond,
			LeaseTimeout:      5 * time.Second,
			RedialInterval:    25 * time.Millisecond,
			ReplListener:      lns[i],
			Dial:              dial,
			WAL:               authenticache.WALOptions{FlushBatch: 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := n.Start(dctx); err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
		defer n.Close()
	}
	primary := nodes[0]

	const id = authenticache.ClientID("bench-hot")
	m := chaosMap(clusterBenchLines, 100, 4242, 680)
	key, err := primary.Server().Enroll(dctx, id, m)
	if err != nil {
		b.Fatal(err)
	}
	r := authenticache.NewResponder(id, authenticache.NewSimDevice(m), key)

	// Wait for the replicas to hold the enrollment, then warm every
	// node's per-client field cache so the steady state is measured.
	for _, n := range nodes {
		for !n.Server().Enrolled(id) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	backends := make([]authenticache.TxBackend, nodeCount)
	for i, n := range nodes {
		backends[i] = n.Backend()
	}
	roundTrip := func(be authenticache.TxBackend) error {
		ch, err := be.BeginAuth(dctx, id)
		if err != nil {
			return err
		}
		resp, err := r.Respond(ch)
		if err != nil {
			return err
		}
		_, err = be.FinishAuth(dctx, id, ch.ID, resp)
		return err
	}
	for _, be := range backends {
		if err := roundTrip(be); err != nil {
			b.Fatal(err)
		}
	}

	// Spread mode sends client traffic to the followers only: a
	// transaction served directly by the primary holds the hot
	// client's record lock across its whole issue path, convoying the
	// delegated burns that need the same lock for far shorter spans.
	var ctr int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			be := backends[0]
			if spread {
				be = backends[1+int(atomic.AddInt64(&ctr, 1))%(len(backends)-1)]
			}
			if err := roundTrip(be); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}
