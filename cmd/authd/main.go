// Command authd runs an Authenticache authentication server over TCP.
//
// The daemon simulates the factory enrollment pipeline: it
// manufactures -devices simulated chips (deterministically from
// -seed), characterises each one's low-voltage error map, enrolls them
// all, and then serves authentication and key-update transactions on
// -addr. For every device it prints a provisioning line
//
//	PROVISION id=<id> chipseed=<n> key=<hex>
//
// which is exactly what a client (cmd/authcli) needs to authenticate.
//
// # Durability
//
// -wal <dir> is required by every role but the router: every mutation
// (enrollment, pair burn, key rotation, challenge-counter advance) is
// journaled to a write-ahead log before the operation returns, the log
// is compacted into a snapshot every -compact interval and on SIGINT
// drain, and boot recovers snapshot + journal tail — including after a
// crash that tore the final record. A pair burned before a restart
// stays burned after it, so no boot reissues a challenge an earlier
// boot already sent. A server without the journal would re-run the
// same seeded enrollment and challenge stream on every boot and
// reissue the earlier boot's challenges over the same pairs, which an
// eavesdropper could answer from recorded traffic; authd refuses to
// start without -wal instead.
//
// Usage:
//
//	authd -wal waldir [-addr :7430] [-devices 4] [-seed 1] [-bits 256]
//	      [-cache 1048576] [-compact 1m] [-max-inflight 0]
//
// -max-inflight caps concurrent transactions: beyond it the server
// sheds with a retryable "unavailable" verdict instead of queueing
// unboundedly (resilient clients back off and retry).
//
// Clients speak the multiplexed binary framing of docs/PROTOCOL.md;
// a connection that does not open with its preamble is hung up on.
//
// # Cluster modes
//
// -role selects how the daemon participates in a replicated fleet
// (see DESIGN.md §10):
//
//   - standalone (default): the single-node behaviour above.
//   - primary: node 0 of a replicated cluster. Requires -wal and
//     -peers; streams every WAL record to connected followers and
//     acknowledges mutations only after -replicate followers have
//     them. Enrollment waits until that many followers are connected.
//   - follower: any other -node index. Requires -wal and -peers;
//     syncs a snapshot from the primary, applies the record stream,
//     serves verification locally and challenge issuance by
//     delegation, and promotes itself on primary loss. A follower more
//     than 512 records behind the primary's commit frontier refuses
//     reads with a retryable "unavailable".
//   - router: a stateless ingress tier. Requires -client-peers; each
//     transaction is forwarded to its client's consistent-hash owner
//     through the resilience control plane — background probes feed
//     per-peer circuit breakers (five consecutive failures open one),
//     reads hedge to the ring successor when the owner is open or has
//     not answered within 20ms, a successor known to be beyond the
//     followers' staleness bound is not tried, and key updates fail
//     fast on an open owner circuit (DESIGN.md §11).
//
// Primary and follower compact their WAL every -compact interval and
// on drain, as the standalone mode does.
//
// A local 3-node cluster with a router in front:
//
//	authd -role primary  -node 0 -peers :7500,:7501,:7502 \
//	      -client-peers :7430,:7431,:7432 -addr :7430 -wal wal0
//	authd -role follower -node 1 -peers :7500,:7501,:7502 \
//	      -client-peers :7430,:7431,:7432 -addr :7431 -wal wal1
//	authd -role follower -node 2 -peers :7500,:7501,:7502 \
//	      -client-peers :7430,:7431,:7432 -addr :7432 -wal wal2
//	authd -role router -client-peers :7430,:7431,:7432 -addr :7440
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	authenticache "repro"
	"repro/internal/enroll"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7430", "listen address")
	devices := flag.Int("devices", 4, "number of simulated devices to enroll")
	seed := flag.Uint64("seed", 1, "fleet seed (device i uses seed+i)")
	bits := flag.Int("bits", 256, "challenge length in bits")
	cacheBytes := flag.Int("cache", 1<<20, "simulated cache size in bytes")
	walDir := flag.String("wal", "", "write-ahead log directory: journal every mutation, recover on boot (required by every role but router)")
	compactEvery := flag.Duration("compact", time.Minute, "WAL compaction interval (every role with -wal)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent transactions before shedding with 'unavailable' (0 = unlimited)")
	role := flag.String("role", "standalone", "cluster role: standalone, primary, follower, or router")
	nodeIdx := flag.Int("node", 0, "this node's index into -peers (primary/follower)")
	peers := flag.String("peers", "", "comma-separated replication addresses, one per node (primary/follower)")
	clientPeers := flag.String("client-peers", "", "comma-separated client-facing addresses, one per node (router, and follower key-update forwarding)")
	replicate := flag.Int("replicate", 1, "follower acknowledgements required before a mutation is durable (primary)")
	flag.Parse()

	// SIGINT or SIGTERM (what init systems and container runtimes send)
	// drains the daemon: the serve loop and every in-flight transaction
	// observe the cancellation.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	cfg := authenticache.DefaultServerConfig()
	cfg.ChallengeBits = *bits

	switch *role {
	case "standalone":
		runDurable(ctx, cfg, *walDir, *addr, *devices, *seed, *cacheBytes, *compactEvery, *maxInflight)
	case "router":
		runRouter(ctx, splitAddrs(*clientPeers), *addr, *maxInflight)
	case "primary", "follower":
		runClusterNode(ctx, cfg, *role, *nodeIdx, splitAddrs(*peers), splitAddrs(*clientPeers),
			*walDir, *addr, *devices, *seed, *cacheBytes, *replicate, *compactEvery, *maxInflight)
	default:
		log.Fatalf("authd: unknown -role %q (standalone, primary, follower, router)", *role)
	}
}

// runDurable serves one node with the write-ahead log: recover on
// boot, journal while serving, compact periodically, snapshot on
// drain.
func runDurable(ctx context.Context, cfg authenticache.ServerConfig, walDir, addr string, devices int, seed uint64, cacheBytes int, compactEvery time.Duration, maxInflight int) {
	if walDir == "" {
		log.Fatal("authd: -role standalone requires -wal: without the journal a restart reissues the previous boot's challenges")
	}
	ds, err := authenticache.OpenDurableServer(walDir, cfg, seed^0xd5e7, authenticache.WALOptions{})
	if err != nil {
		log.Fatalf("authd: open WAL: %v", err)
	}
	if n := len(ds.ClientIDs()); n > 0 {
		log.Printf("authd: recovered %d clients from %s", n, walDir)
		printProvisioned(ds.Server, " (restored)")
	} else {
		enrollFleet(ctx, ds.Server, devices, seed, cacheBytes)
	}
	// The enrollments above are journaled; fold them into a snapshot
	// so recovery starts from a compact base.
	if err := ds.Compact(); err != nil {
		log.Fatalf("authd: initial compaction: %v", err)
	}

	stopCompaction := compactPeriodically(ctx, compactEvery, ds.Compact)
	if err := serve(ctx, ds.Server, addr, maxInflight); err != nil {
		log.Printf("authd: serve: %v", err)
	}
	stopCompaction()
	// Drained: take the final snapshot so the next boot replays an
	// empty journal tail.
	if err := ds.Close(); err != nil {
		log.Fatalf("authd: final snapshot: %v", err)
	}
	log.Printf("authd: final snapshot written to %s", walDir)
}

// compactPeriodically compacts every interval in the background, for
// every WAL-backed role. The returned stop ends the loop and waits for
// it, so a periodic compaction never races the final one at drain.
func compactPeriodically(ctx context.Context, every time.Duration, compact func() error) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := compact(); err != nil {
					log.Printf("authd: compaction: %v", err)
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// enrollFleet manufactures and enrolls the simulated device fleet,
// printing a PROVISION line per accepted chip.
func enrollFleet(ctx context.Context, srv *authenticache.Server, devices int, seed uint64, cacheBytes int) {
	log.Printf("authd: manufacturing and enrolling %d devices (%d B caches)...", devices, cacheBytes)
	for i := 0; i < devices; i++ {
		chipSeed := seed + uint64(i)
		id := authenticache.ClientID(fmt.Sprintf("dev-%d", i))
		chip, err := authenticache.NewChip(authenticache.ChipConfig{
			Seed:       chipSeed,
			CacheBytes: cacheBytes,
		})
		if err != nil {
			log.Fatalf("authd: chip %d: %v", i, err)
		}
		// Run the chip through the enrollment station: characterise,
		// screen, and provision only units that pass.
		crit := enroll.DefaultCriteria(chip.Geometry().Lines())
		crit.AuthPlanes = 2
		crit.ReservedPlanes = 1
		res, err := enroll.Characterize(chip, id, crit)
		if err != nil {
			log.Fatalf("authd: characterise chip %d: %v", i, err)
		}
		if !res.Accepted() {
			log.Printf("authd: chip %d rejected by the station: %v", i, res.Rejections)
			continue
		}
		key, err := enroll.Provision(ctx, srv, res)
		if err != nil {
			log.Fatalf("authd: provision %q: %v", id, err)
		}
		fmt.Printf("PROVISION id=%s chipseed=%d key=%s\n", id, chipSeed, hex.EncodeToString(key[:]))
	}
}

// printProvisioned prints a PROVISION line per already-enrolled client.
func printProvisioned(srv *authenticache.Server, suffix string) {
	for _, id := range srv.ClientIDs() {
		key, err := srv.CurrentKey(id)
		if err != nil {
			log.Fatalf("authd: %v", err)
		}
		fmt.Printf("PROVISION id=%s key=%s%s\n", id, hex.EncodeToString(key[:]), suffix)
	}
}

// splitAddrs parses a comma-separated address list, rejecting blanks.
func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
		if parts[i] == "" {
			log.Fatalf("authd: empty address in list %q", s)
		}
	}
	return parts
}

// runRouter serves a stateless forwarding tier: every transaction is
// relayed to its client's consistent-hash owner node, with the
// background prober feeding the failure detector.
func runRouter(ctx context.Context, clientPeers []string, addr string, maxInflight int) {
	if len(clientPeers) == 0 {
		log.Fatal("authd: -role router requires -client-peers")
	}
	router := authenticache.NewRouter(authenticache.RouterConfig{
		ClientPeers: clientPeers,
		Self:        -1,
	})
	defer router.Close()
	router.Start(ctx)
	ws, err := authenticache.NewWireServerBackend(router, authenticache.WireConfig{MaxInFlight: maxInflight})
	if err != nil {
		log.Fatalf("authd: %v", err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("authd: %v", err)
	}
	log.Printf("authd: routing for %d nodes on %s", len(clientPeers), l.Addr())
	if err := ws.Serve(ctx, l); err != nil {
		log.Printf("authd: serve: %v", err)
	}
}

// runClusterNode serves one member of a replicated cluster: node 0 is
// the initial primary (it enrolls the fleet once enough followers are
// connected to acknowledge durably), every other index starts as a
// follower syncing from it.
func runClusterNode(ctx context.Context, cfg authenticache.ServerConfig, role string, nodeIdx int, peers, clientPeers []string, walDir, addr string, devices int, seed uint64, cacheBytes, replicate int, compactEvery time.Duration, maxInflight int) {
	if walDir == "" {
		log.Fatalf("authd: -role %s requires -wal", role)
	}
	if len(peers) < 2 {
		log.Fatalf("authd: -role %s requires -peers with at least two addresses", role)
	}
	if nodeIdx < 0 || nodeIdx >= len(peers) {
		log.Fatalf("authd: -node %d out of range for %d peers", nodeIdx, len(peers))
	}
	// The initial primary is index 0 by convention; -role documents
	// intent and is checked against it.
	if role == "primary" && nodeIdx != 0 {
		log.Fatalf("authd: -role primary requires -node 0 (node %d starts as a follower)", nodeIdx)
	}
	if role == "follower" && nodeIdx == 0 {
		log.Fatal("authd: -role follower requires -node >= 1 (node 0 starts as the primary)")
	}
	node, err := authenticache.OpenClusterNode(authenticache.ClusterConfig{
		NodeIndex:   nodeIdx,
		Peers:       peers,
		ClientPeers: clientPeers,
		Dir:         walDir,
		Auth:        cfg,
		Seed:        seed ^ 0xd5e7,
		ReplicaAcks: replicate,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatalf("authd: open cluster node: %v", err)
	}
	if err := node.Start(ctx); err != nil {
		log.Fatalf("authd: start cluster node: %v", err)
	}

	if role == "primary" {
		if n := len(node.Server().ClientIDs()); n > 0 {
			log.Printf("authd: recovered %d clients from %s", n, walDir)
			printProvisioned(node.Server(), " (restored)")
		} else {
			// Mutations need -replicate follower acks to be durable;
			// enrolling before that many are connected would only time
			// out record by record.
			log.Printf("authd: waiting for %d follower(s) before enrolling...", replicate)
			for node.Status().Followers < replicate {
				select {
				case <-ctx.Done():
					log.Fatal("authd: interrupted while waiting for followers")
				case <-time.After(100 * time.Millisecond):
				}
			}
			enrollFleet(ctx, node.Server(), devices, seed, cacheBytes)
		}
	} else {
		log.Printf("authd: following the primary at %s", peers[node.Status().PrimaryIndex])
	}

	ws, err := authenticache.NewWireServerBackend(node.Backend(), authenticache.WireConfig{MaxInFlight: maxInflight})
	if err != nil {
		log.Fatalf("authd: %v", err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("authd: %v", err)
	}
	st := node.Status()
	log.Printf("authd: cluster node %d (%s, term %d) serving on %s", nodeIdx, node.Role(), st.Term, l.Addr())
	stopCompaction := compactPeriodically(ctx, compactEvery, node.Compact)
	if err := ws.Serve(ctx, l); err != nil {
		log.Printf("authd: serve: %v", err)
	}
	stopCompaction()
	// Drained: fold the WAL into a final snapshot.
	if err := node.Close(); err != nil {
		log.Fatalf("authd: close cluster node: %v", err)
	}
	log.Printf("authd: final snapshot written to %s", walDir)
}

func serve(ctx context.Context, srv *authenticache.Server, addr string, maxInflight int) error {
	ws, err := authenticache.NewWireServerConfig(srv, authenticache.WireConfig{MaxInFlight: maxInflight})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("authd: serving on %s", l.Addr())
	return ws.Serve(ctx, l)
}
