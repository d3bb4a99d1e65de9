// Loadtest: hammer the TCP authentication server with a concurrent
// fleet and report sustained throughput and latency percentiles — the
// capacity-planning question behind Table 1's "thousands of daily
// authentications per device".
//
// Every worker owns a distinct enrolled device and loops full
// authentication transactions (challenge → PUF evaluation → verify →
// session key) over its own TCP connection, and -depth lanes pipeline
// concurrent transactions over that one connection.
//
// With -nodes N the single server becomes an in-process replicated
// cluster: N nodes (node 0 primary), each with its own WAL and wire
// listener, fronted by a consistent-hash router that every worker
// dials — the same topology `authd -role primary/follower/router`
// builds across processes.
//
//	go run ./examples/loadtest
//	go run ./examples/loadtest -depth 8
//	go run ./examples/loadtest -nodes 3 -depth 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	authenticache "repro"
	"repro/internal/errormap"
	"repro/internal/rng"
)

const (
	workers      = 8
	perWorker    = 40
	lines        = 16384
	errsPerPlane = 100
	vddMV        = 680
)

func main() {
	depth := flag.Int("depth", 1, "pipeline depth per connection (lanes sharing one connection)")
	nodeCount := flag.Int("nodes", 1, "cluster size: 1 serves directly, N>1 replicates behind a consistent-hash router")
	hedgeDelay := flag.Duration("hedge-delay", 0, "router hedge delay before trying the ring successor (clustered only; 0 = library default, negative disables)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures that open a peer's breaker (clustered only; 0 = library default, negative disables)")
	maxStaleness := flag.Int64("max-staleness", 0, "follower lag bound for serving reads (clustered only; 0 = library default, negative disables)")
	flag.Parse()
	if *depth < 1 {
		log.Fatal("loadtest: -depth must be >= 1")
	}
	if *nodeCount < 1 {
		log.Fatal("loadtest: -nodes must be >= 1")
	}

	ctx := context.Background()
	cfg := authenticache.DefaultServerConfig()
	cfg.ChallengeBits = 128

	var srv *authenticache.Server
	var ingress string
	var topology string
	if *nodeCount > 1 {
		cluster, err := startCluster(ctx, *nodeCount, cfg, resilience{
			hedgeDelay:       *hedgeDelay,
			breakerThreshold: *breakerThreshold,
			maxStaleness:     *maxStaleness,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.close()
		srv = cluster.primary.Server()
		ingress = cluster.routerAddr
		topology = fmt.Sprintf("%d-node cluster + router", *nodeCount)
	} else {
		srv = authenticache.NewServer(cfg, 1)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		ws := authenticache.NewWireServer(srv)
		go ws.Serve(ctx, l)
		defer ws.Close()
		ingress = l.Addr().String()
		topology = "single node"
	}

	// Enroll one device per worker.
	type client struct {
		responder *authenticache.Responder
	}
	clients := make([]client, workers)
	r := rng.New(2)
	for i := range clients {
		g := errormap.NewGeometry(lines)
		m := errormap.NewMap(g)
		m.AddPlane(vddMV, errormap.RandomPlane(g, errsPerPlane, r))
		id := authenticache.ClientID(fmt.Sprintf("load-%02d", i))
		key, err := srv.Enroll(ctx, id, m)
		if err != nil {
			log.Fatal(err)
		}
		clients[i] = client{responder: authenticache.NewResponder(id, authenticache.NewSimDevice(m), key)}
	}

	fmt.Printf("%s on %s; depth=%d; %d workers x %d transactions\n",
		topology, ingress, *depth, workers, perWorker)

	var rejected, failed atomic.Int64
	latencies := make([][]time.Duration, workers)
	var latMu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := authenticache.Dial(ctx, ingress)
			if err != nil {
				failed.Add(int64(perWorker))
				return
			}
			defer wc.Close()
			// Split the worker's budget across -depth pipelined lanes,
			// all sharing the one connection.
			var lanes sync.WaitGroup
			for lane := 0; lane < *depth; lane++ {
				n := perWorker / *depth
				if lane < perWorker%*depth {
					n++
				}
				lanes.Add(1)
				go func(n int) {
					defer lanes.Done()
					for i := 0; i < n; i++ {
						t0 := time.Now()
						ok, err := wc.Authenticate(ctx, clients[w].responder)
						if err != nil {
							failed.Add(1)
							continue
						}
						if !ok {
							rejected.Add(1)
						}
						latMu.Lock()
						latencies[w] = append(latencies[w], time.Since(t0))
						latMu.Unlock()
					}
				}(n)
			}
			lanes.Wait()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := len(all)
	if total == 0 {
		log.Fatal("no transactions completed")
	}
	fmt.Printf("completed %d transactions in %v (%.0f auth/s)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Printf("latency p50=%v p90=%v p99=%v max=%v\n",
		all[total/2].Round(time.Microsecond),
		all[total*9/10].Round(time.Microsecond),
		all[total*99/100].Round(time.Microsecond),
		all[total-1].Round(time.Microsecond))
	fmt.Printf("rejected=%d transport_failures=%d\n", rejected.Load(), failed.Load())
	if rejected.Load() > 0 || failed.Load() > 0 {
		log.Fatal("genuine transactions were rejected under load")
	}
}

// loadCluster is the in-process analogue of the authd cluster
// quickstart: N replicated nodes, each serving its wire listener,
// plus a router ingress forwarding every transaction to its client's
// consistent-hash owner.
type loadCluster struct {
	primary    *authenticache.ClusterNode
	nodes      []*authenticache.ClusterNode
	router     *authenticache.Router
	routerAddr string
	dir        string
	servers    []*authenticache.WireServer
}

// resilience carries the router/cluster control-plane knobs from the
// command line (zero = library default, negative = disabled), the
// same trio authd exposes.
type resilience struct {
	hedgeDelay       time.Duration
	breakerThreshold int
	maxStaleness     int64
}

func startCluster(ctx context.Context, n int, cfg authenticache.ServerConfig, resil resilience) (*loadCluster, error) {
	dir, err := os.MkdirTemp("", "loadtest-cluster")
	if err != nil {
		return nil, err
	}
	c := &loadCluster{dir: dir}

	replLns := make([]net.Listener, n)
	replAddrs := make([]string, n)
	clientLns := make([]net.Listener, n)
	clientAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		if replLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		replAddrs[i] = replLns[i].Addr().String()
		if clientLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		clientAddrs[i] = clientLns[i].Addr().String()
	}
	for i := 0; i < n; i++ {
		node, err := authenticache.OpenClusterNode(authenticache.ClusterConfig{
			NodeIndex:    i,
			Peers:        replAddrs,
			ClientPeers:  clientAddrs,
			Dir:          filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			Auth:         cfg,
			Seed:         uint64(1 + i),
			ReplicaAcks:  1,
			ReplListener: replLns[i],
			MaxStaleness: resil.maxStaleness,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		if err := node.Start(ctx); err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		ws, err := node.NewWireServer(authenticache.WireConfig{})
		if err != nil {
			c.close()
			return nil, err
		}
		go ws.Serve(ctx, clientLns[i])
		c.servers = append(c.servers, ws)
	}
	c.primary = c.nodes[0]
	for c.primary.Status().Followers < 1 {
		time.Sleep(10 * time.Millisecond)
	}

	c.router = authenticache.NewRouter(authenticache.RouterConfig{
		ClientPeers:      clientAddrs,
		Self:             -1,
		HedgeDelay:       resil.hedgeDelay,
		BreakerThreshold: resil.breakerThreshold,
		MaxStaleness:     resil.maxStaleness,
	})
	c.router.Start(ctx)
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	rs, err := authenticache.NewWireServerBackend(c.router, authenticache.WireConfig{})
	if err != nil {
		c.close()
		return nil, err
	}
	go rs.Serve(ctx, rl)
	c.servers = append(c.servers, rs)
	c.routerAddr = rl.Addr().String()
	return c, nil
}

func (c *loadCluster) close() {
	for _, ws := range c.servers {
		ws.Close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	os.RemoveAll(c.dir)
}
