package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	authenticache "repro"
	"repro/internal/auth"
	"repro/internal/wal"
)

// serverSeed is authd's derivation of the challenge-stream seed.
func serverSeed(seed uint64) uint64 { return seed ^ 0xd5e7 }

// system is one deployment under test, built in-process from the
// public facade and reached by the clients over v2 on loopback.
type system struct {
	addr string // client-facing address
	// walDir is the WAL directory a crash image copies: the node's, or
	// the cluster primary's.
	walDir string
	// servers are the enrollment databases whose counters the client
	// tally is checked against.
	servers []*authenticache.Server
	// enroller takes the fleet's enrollments.
	enroller *authenticache.Server
	// compact folds a node's WAL into a snapshot (nil on a cluster).
	compact func() error
	nodes   []*authenticache.ClusterNode

	pool    *pool
	closers []func() error // run in reverse order
	cancel  context.CancelFunc
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve starts a wire server on l and registers its shutdown.
func (s *system) serve(ctx context.Context, ws *authenticache.WireServer, l net.Listener) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Serve returns nil once Close runs; an accept failure before
		// that surfaces as the clients' transport errors.
		_ = ws.Serve(ctx, l)
	}()
	s.closers = append(s.closers, func() error { ws.Close(); <-done; return nil })
}

// close tears the system down, newest part first.
func (s *system) close() error {
	var errs []error
	if s.pool != nil {
		s.pool.close()
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.cancel()
	return errors.Join(errs...)
}

// txPerConn is how many transactions the benchmark starts on one
// client connection before replacing it: the wire server's default
// MaxTransactionsPerConn, past which it hangs up on the connection and
// fails the transactions still open on it.
const txPerConn = 1024

// pool holds the client connections to the system's ingress: conns
// slots, each replaced by a fresh connection once it has carried
// txPerConn transactions. A replaced connection closes when its last
// transaction ends, so at most conns connections are open beyond
// those draining. Traced runs count the connections' bytes.
type pool struct {
	addr string
	t    *tracer

	mu    sync.Mutex
	slots [conns]*pconn
}

type pconn struct {
	wc      *authenticache.WireClient
	started int // transactions started on it, up to txPerConn
	open    int // transactions still running on it
}

// get returns the connection of a slot for one more transaction, and
// the function that ends it.
func (p *pool) get(ctx context.Context, slot int) (*authenticache.WireClient, func(), error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.slots[slot]; c == nil || c.started == txPerConn {
		if err := p.openLocked(ctx, slot); err != nil {
			return nil, nil, err
		}
	}
	c := p.slots[slot]
	c.started++
	c.open++
	return c.wc, func() { p.done(slot, c) }, nil
}

// done ends a transaction on c, closing c if it has been replaced and
// this was its last.
func (p *pool) done(slot int, c *pconn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c.open--
	if c.open == 0 && p.slots[slot] != c {
		c.wc.Close()
	}
}

// openLocked gives a slot a fresh connection, closing the one it
// replaces if no transaction is running on it. Callers hold p.mu.
func (p *pool) openLocked(ctx context.Context, slot int) error {
	var wc *authenticache.WireClient
	var err error
	if p.t == nil {
		wc, err = authenticache.DialV2(ctx, p.addr)
	} else {
		var d net.Dialer
		var conn net.Conn
		if conn, err = d.DialContext(ctx, "tcp", p.addr); err == nil {
			wc, err = auth.NewWireClientV2(&countingConn{Conn: conn, bytes: &p.t.c.clientBytes})
		}
	}
	if err != nil {
		return fmt.Errorf("dial %s: %w", p.addr, err)
	}
	if old := p.slots[slot]; old != nil && old.open == 0 {
		old.wc.Close()
	}
	p.slots[slot] = &pconn{wc: wc}
	return nil
}

// close closes the slots' connections; call it once no transaction
// runs.
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.slots {
		if c != nil {
			c.wc.Close()
		}
	}
}

// connect opens the client connections to the system's ingress.
func (s *system) connect(ctx context.Context, t *tracer) error {
	s.pool = &pool{addr: s.addr, t: t}
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	for i := range s.pool.slots {
		if err := s.pool.openLocked(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// buildNode opens a durable node set up like `authd -wal`: the WAL on
// authd's default flush policy with its segments in fsys, served over
// v2. The traced variant assembles the same parts by hand so it can
// wrap the journal, the WAL filesystem, the backend and the listener.
func buildNode(dir string, seed uint64, fsys *memFS, t *tracer) (*system, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &system{walDir: dir, cancel: cancel}
	cfg := authenticache.DefaultServerConfig()
	var ws *authenticache.WireServer
	l, err := listen()
	if err != nil {
		cancel()
		return nil, err
	}
	if t == nil {
		ds, err := authenticache.OpenDurableServer(dir, cfg, serverSeed(seed), authenticache.WALOptions{FS: fsys})
		if err != nil {
			l.Close()
			cancel()
			return nil, err
		}
		s.enroller, s.compact = ds.Server, ds.Compact
		s.closers = append(s.closers, ds.Close)
		ws = authenticache.NewWireServer(ds.Server)
	} else {
		w, err := wal.Open(dir, wal.Options{FS: countingFS{FS: fsys, c: &t.c}})
		if err != nil {
			l.Close()
			cancel()
			return nil, err
		}
		cfg.WAL = tracedJournal{Journal: w, t: t}
		srv := authenticache.NewServer(cfg, serverSeed(seed))
		// What OpenDurableServer does after replaying an empty log.
		srv.SaltChallengeStream(w.CommittedSeq())
		s.enroller = srv
		s.compact = func() error { return w.Compact(srv.SaveState) }
		s.closers = append(s.closers, func() error {
			err := s.compact()
			return errors.Join(err, w.Close())
		})
		ws, err = authenticache.NewWireServerBackend(tracedBackend{inner: auth.LocalBackend(srv), t: t, layer: "server"}, authenticache.WireConfig{})
		if err != nil {
			l.Close()
			s.close()
			return nil, err
		}
		l = countingListener{Listener: l, bytes: new(atomic.Int64), writes: &t.c.serverWrites}
	}
	s.servers = []*authenticache.Server{s.enroller}
	s.addr = l.Addr().String()
	s.serve(ctx, ws, l)
	return s, nil
}

// buildCluster opens a 3-node cluster (ReplicaAcks 1, loopback, no
// injected delay) and a standalone router in front of it, every wire
// server at its default config. The primary starts before the
// followers, and readiness is polled finely, so set-up contains no
// redial or heartbeat step.
//
// The router keeps one pooled relay connection per node and does not
// replace it before the node's per-connection cap of 1024
// transactions, so the node hangs up on it every 1024 forwards and the
// forwards still open on that connection fail with a retryable
// unavailable. Clients retry them; provenance counts them.
func buildCluster(dir string, seed uint64, fsys *memFS, t *tracer) (*system, error) {
	const n = 3
	ctx, cancel := context.WithCancel(context.Background())
	s := &system{walDir: filepath.Join(dir, "node-0"), cancel: cancel}
	fail := func(err error) (*system, error) {
		s.close()
		return nil, err
	}
	replLns := make([]net.Listener, n)
	clientLns := make([]net.Listener, n)
	replAddrs := make([]string, n)
	clientAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		var err error
		if replLns[i], err = listen(); err != nil {
			return fail(err)
		}
		if clientLns[i], err = listen(); err != nil {
			return fail(err)
		}
		l := replLns[i]
		cl := clientLns[i]
		s.closers = append(s.closers, func() error { l.Close(); cl.Close(); return nil })
		replAddrs[i] = replLns[i].Addr().String()
		clientAddrs[i] = clientLns[i].Addr().String()
		if t != nil {
			replLns[i] = countingListener{Listener: replLns[i], bytes: &t.c.replBytes}
		}
	}
	for i := 0; i < n; i++ {
		cfg := authenticache.ClusterConfig{
			NodeIndex:    i,
			Peers:        replAddrs,
			ClientPeers:  clientAddrs,
			Dir:          filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			Auth:         authenticache.DefaultServerConfig(),
			Seed:         serverSeed(seed),
			ReplicaAcks:  1,
			ReplListener: replLns[i],
			WAL:          wal.Options{FS: fsys},
		}
		if t != nil {
			cfg.Dial = t.replDial
			cfg.WAL.FS = countingFS{FS: fsys, c: &t.c}
		}
		node, err := authenticache.OpenClusterNode(cfg)
		if err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, node.Close)
		if err := node.Start(ctx); err != nil {
			return fail(err)
		}
		s.nodes = append(s.nodes, node)
		s.servers = append(s.servers, node.Server())
	}
	primary := s.nodes[0]
	s.enroller = primary.Server()
	if err := poll(func() bool { return primary.Status().Followers == n-1 }); err != nil {
		return fail(fmt.Errorf("followers did not connect: %w", err))
	}
	for i, node := range s.nodes {
		be := node.Backend()
		if t != nil {
			role := "follower"
			if i == 0 {
				role = "primary"
			}
			be = tracedBackend{inner: be, t: t, layer: role}
		}
		ws, err := authenticache.NewWireServerBackend(be, authenticache.WireConfig{})
		if err != nil {
			return fail(err)
		}
		s.serve(ctx, ws, clientLns[i])
	}
	rcfg := authenticache.RouterConfig{ClientPeers: clientAddrs, Self: -1}
	if t != nil {
		rcfg.Dial = t.relayDial
	}
	router := authenticache.NewRouter(rcfg)
	router.Start(ctx)
	s.closers = append(s.closers, func() error { router.Close(); return nil })
	var rbe authenticache.TxBackend = router
	if t != nil {
		rbe = tracedBackend{inner: router, t: t, layer: "router"}
	}
	rs, err := authenticache.NewWireServerBackend(rbe, authenticache.WireConfig{})
	if err != nil {
		return fail(err)
	}
	rl, err := listen()
	if err != nil {
		return fail(err)
	}
	s.addr = rl.Addr().String()
	if t != nil {
		rl = countingListener{Listener: rl, bytes: new(atomic.Int64), writes: &t.c.serverWrites}
	}
	s.serve(ctx, rs, rl)
	return s, nil
}

// caughtUp waits until every follower has applied the primary's log.
func (s *system) caughtUp() error {
	if len(s.nodes) == 0 {
		return nil
	}
	return poll(func() bool {
		want := s.nodes[0].Status().CommitSeq
		for _, n := range s.nodes[1:] {
			if n.Status().AppliedSeq < want {
				return false
			}
		}
		return true
	})
}

// poll checks cond every 200µs for up to 10 s.
func poll(cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// checkCluster fails if the cluster changed term or moved its primary.
func (s *system) checkCluster() error {
	for i, n := range s.nodes {
		st := n.Status()
		if st.Term != 1 || st.PrimaryIndex != 0 {
			return fmt.Errorf("node %d at term %d with primary %d: the cluster failed over during the run", i, st.Term, st.PrimaryIndex)
		}
	}
	return nil
}

// stats sums the servers' counters. On a cluster the primary counts
// every issue (its own and the burns it approves for followers) and
// each node counts the verdicts it verified.
func (s *system) stats() authenticache.ServerStats {
	var sum authenticache.ServerStats
	for _, srv := range s.servers {
		st := srv.Stats()
		sum.Issued += st.Issued
		sum.Accepted += st.Accepted
		sum.Rejected += st.Rejected
	}
	return sum
}

// copyHostDir copies the regular files of src into a new directory
// dst.
func copyHostDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// hostDirBytes sums the sizes of the regular files in dir.
func hostDirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
