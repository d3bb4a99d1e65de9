// Package cluster replicates an authd enrollment database across N
// nodes and keeps it serving through the loss of any one of them.
//
// Topology: single primary, N-1 followers, asynchronous log shipping
// with synchronous acknowledgement. Every mutation (enrollment, pair
// burn, key rotation, counter advance, delete) journals through the
// primary's WAL exactly as on a single node; the WAL's Subscribe seam
// then fans the committed frames out to each connected follower, which
// appends the verbatim frame to its own log (byte-identical, CRC
// verified end to end), applies it to its in-memory replica through
// the idempotent Replay* appliers, and acknowledges. The primary's
// journal write does not return until ReplicaAcks followers have
// acknowledged the record, so an enrollment or burn the protocol
// committed to survives the primary's disk AND ReplicaAcks follower
// disks — or the client saw a retryable "unavailable" error and the
// record is not durably acked at all.
//
// Fencing falls out of the same rule: a deposed primary keeps
// accepting connections but has no followers, so every mutation times
// out waiting for acknowledgements and fails retryably. It can write
// its own log, but it cannot durably ack a client.
//
// Catch-up is snapshot-based: a (re)connecting follower subscribes to
// the primary's WAL first, then receives a serialized state snapshot
// tagged with the exact commit sequence the subscription started at,
// so the snapshot→feed handoff is gapless (overlap is absorbed by the
// idempotent appliers). The follower persists the adopted snapshot by
// compacting its own WAL, discarding any divergent tail from a
// previous reign.
//
// Failover is lease-based: the primary heartbeats every follower; a
// follower whose lease expires assumes the primary is gone and the
// deterministic successor — the next node index after the failed
// primary, modulo the cluster size — promotes itself under a higher
// term. Other followers probe forward through the ring until they find
// the node that answers with the highest term. A primary that sees a
// hello carrying a higher term steps down immediately. See DESIGN.md's
// Replication section for the guarantees and the limits of rank-based
// succession.
package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/wal"
)

// Role is a node's current cluster role.
type Role int

const (
	// RoleFollower replicates the primary's log and serves reads
	// (challenge issuance by delegation, verification locally).
	RoleFollower Role = iota
	// RolePrimary owns the log: all mutations journal through it.
	RolePrimary
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "follower"
}

// DialFunc establishes replication connections; tests inject
// fault.Partition gates here.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// Config describes one node of a replicated authd cluster.
type Config struct {
	// NodeIndex is this node's position in Peers.
	NodeIndex int
	// Peers lists every node's replication address, index-aligned.
	// A single entry (or none) disables replication entirely: the node
	// is a standalone primary and journal writes do not wait.
	Peers []string
	// ClientPeers optionally lists every node's client-facing address,
	// index-aligned with Peers. Followers need it to forward key-update
	// transactions to the primary; empty disables forwarding (followers
	// answer remaps with a retryable "unavailable").
	ClientPeers []string
	// PrimaryIndex is the initial primary (default 0).
	PrimaryIndex int

	// Dir is this node's WAL directory.
	Dir string
	// Auth configures the embedded server. Auth.WAL is ignored: the
	// node attaches its replicating journal itself.
	Auth auth.Config
	// Seed seeds the embedded server's challenge sampling.
	Seed uint64
	// WAL tunes the local log.
	WAL wal.Options

	// ReplicaAcks is how many follower acknowledgements a journal write
	// needs before it returns (default 1 when the cluster has peers).
	ReplicaAcks int
	// AckTimeout bounds the wait for those acknowledgements, and every
	// replication-link write (default 2s).
	AckTimeout time.Duration
	// HeartbeatInterval is the primary's lease-renewal pace
	// (default 100ms).
	HeartbeatInterval time.Duration
	// LeaseTimeout is how long a follower tolerates silence before it
	// declares the primary dead (default 10 heartbeat intervals).
	LeaseTimeout time.Duration
	// RedialInterval is the base delay between follower reconnection
	// attempts (default 50ms). Consecutive failed sessions back off
	// exponentially with jitter from this base.
	RedialInterval time.Duration
	// RedialMax caps the grown redial backoff (default 20×
	// RedialInterval).
	RedialMax time.Duration
	// MaxStaleness is how many records a follower's replica may trail
	// the primary's advertised commit frontier while still serving
	// challenge issuance; beyond it the follower answers a retryable
	// unavailable so hedged reads land on a fresher node. 0 uses the
	// default (512); negative disables the guard.
	MaxStaleness int64

	// ReplListener, when non-nil, is used (once) as the replication
	// listener instead of binding Peers[NodeIndex] — tests bind :0
	// listeners up front so peer addresses are concrete. A follower
	// holds it unused until promotion.
	ReplListener net.Listener
	// Dial establishes outbound replication connections (default
	// net.Dialer). Chaos tests route this through a fault.Partition.
	Dial DialFunc
	// Logf receives replication lifecycle events (default: discard).
	Logf func(format string, args ...any)
}

// Status is a point-in-time snapshot of a node's replication state.
type Status struct {
	NodeIndex    int
	Role         Role
	Term         uint64
	PrimaryIndex int
	// CommitSeq is the local WAL's committed sequence.
	CommitSeq uint64
	// AppliedSeq is the last primary sequence applied (followers).
	AppliedSeq uint64
	// Lag is the primary's advertised commit sequence minus AppliedSeq
	// at the last heartbeat (followers).
	Lag uint64
	// Followers counts live replication sessions (primary).
	Followers int
	// Acked maps follower node index to its highest acknowledged
	// sequence (primary).
	Acked map[int]uint64
}

// Node is one member of a replicated authd cluster: an embedded
// auth.Server, its local WAL, and the replication machinery tying the
// two to the rest of the cluster.
type Node struct {
	cfg        Config
	replicated bool
	srv        *auth.Server
	wal        *wal.WAL
	localBE    auth.TxBackend
	backend    *nodeBackend
	dial       DialFunc
	logf       func(string, ...any)

	// ctx and cancel are set once in Start, before any traffic.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// The replication layer nests locks in a fixed order: Node.mu is
	// taken first (role/term transitions), then per-structure locks,
	// with the WAL's subscriber registry innermost (Subscribe runs
	// under Node.mu during follower attach).
	//lint:lockorder Node.mu < Router.mu < breaker.mu < healthTracker.mu < nodeBackend.mu < primaryLink.mu < primaryLink.sendMu < followerConn.sendMu < WAL.subMu
	mu          sync.Mutex
	started     bool
	closed      bool
	role        Role
	term        uint64
	primaryIdx  int
	lastContact time.Time
	preListener net.Listener
	repln       net.Listener
	followers   map[*followerConn]struct{}
	acked       map[int]uint64
	waiters     []*ackWaiter
	link        *primaryLink
	relay       *auth.RelayClient
	relayIdx    int
	appliedSeq  uint64
	lag         uint64
}

// subscribeBuf is the per-follower WAL subscription depth: a follower
// further than this many records behind the fsync stream is cut and
// re-synced by snapshot instead of holding writer memory.
const subscribeBuf = 4096

// maxRepFrame bounds one replication frame; snapshots of large fleets
// dominate, so it matches the WAL's own payload cap plus headroom.
const maxRepFrame = 1 << 26

// Open builds a node: opens (or creates) its WAL, recovers snapshot
// plus journal tail into the embedded server, and attaches the
// replicating journal. The node does not talk to the cluster until
// Start.
func Open(cfg Config) (*Node, error) {
	if len(cfg.Peers) == 0 {
		cfg.Peers = []string{""}
	}
	if cfg.NodeIndex < 0 || cfg.NodeIndex >= len(cfg.Peers) {
		return nil, configErrf("node index %d outside peers [0,%d)", cfg.NodeIndex, len(cfg.Peers))
	}
	if cfg.PrimaryIndex < 0 || cfg.PrimaryIndex >= len(cfg.Peers) {
		return nil, configErrf("primary index %d outside peers [0,%d)", cfg.PrimaryIndex, len(cfg.Peers))
	}
	if len(cfg.ClientPeers) != 0 && len(cfg.ClientPeers) != len(cfg.Peers) {
		return nil, configErrf("%d client peers for %d peers", len(cfg.ClientPeers), len(cfg.Peers))
	}
	replicated := len(cfg.Peers) > 1
	if cfg.ReplicaAcks == 0 && replicated {
		cfg.ReplicaAcks = 1
	}
	if cfg.ReplicaAcks > len(cfg.Peers)-1 {
		return nil, configErrf("%d replica acks from %d followers", cfg.ReplicaAcks, len(cfg.Peers)-1)
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 10 * cfg.HeartbeatInterval
	}
	if cfg.RedialInterval <= 0 {
		cfg.RedialInterval = 50 * time.Millisecond
	}
	if cfg.RedialMax <= 0 {
		cfg.RedialMax = 20 * cfg.RedialInterval
	}
	if cfg.MaxStaleness == 0 {
		cfg.MaxStaleness = 512
	}
	if cfg.Dial == nil {
		var d net.Dialer
		cfg.Dial = d.DialContext
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	w, err := wal.Open(cfg.Dir, cfg.WAL)
	if err != nil {
		return nil, err
	}
	acfg := cfg.Auth
	acfg.WAL = nil
	srv := auth.NewServer(acfg, cfg.Seed)
	snap, ok, err := w.LatestSnapshot()
	if err != nil {
		w.Close()
		return nil, err
	}
	if ok {
		err := srv.LoadState(snap)
		snap.Close()
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("cluster: load WAL snapshot: %w", err)
		}
	}
	if err := w.Replay(func(rec *wal.Record) error { return applyRecord(srv, rec) }); err != nil {
		w.Close()
		return nil, fmt.Errorf("cluster: replay WAL: %w", err)
	}
	// Decorrelate this node's challenge draws from every other stream
	// derived from the same seed: the primary's (a follower replaying
	// the primary's burns while walking the primary's draw sequence
	// samples nothing but burned pairs) and this node's own pre-crash
	// boots (the recovered challenge counters differ per boot).
	srv.SaltChallengeStream(uint64(cfg.NodeIndex)<<32 ^ srv.ChallengeCount())

	n := &Node{
		cfg:        cfg,
		replicated: replicated,
		srv:        srv,
		wal:        w,
		localBE:    auth.LocalBackend(srv),
		dial:       cfg.Dial,
		logf:       cfg.Logf,
		primaryIdx: cfg.PrimaryIndex,
		relayIdx:   -1,
	}
	n.mu.Lock()
	n.term = 1
	if cfg.NodeIndex == cfg.PrimaryIndex {
		n.role = RolePrimary
	}
	n.lastContact = time.Now()
	n.preListener = cfg.ReplListener
	n.followers = make(map[*followerConn]struct{})
	n.acked = make(map[int]uint64)
	n.mu.Unlock()
	n.backend = &nodeBackend{n: n, remaps: make(map[auth.ClientID]*auth.RelayRemapTx)}
	srv.AttachJournal(clusterJournal{n})
	return n, nil
}

// Start brings the node's replication machinery up: the primary opens
// its replication listener, a follower begins chasing the primary. ctx
// bounds everything the node does; Start must be called before the
// node serves traffic.
func (n *Node) Start(ctx context.Context) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return unavailErrf("", "node %d is closed", n.cfg.NodeIndex)
	}
	if n.started {
		n.mu.Unlock()
		return configErrf("node %d already started", n.cfg.NodeIndex)
	}
	n.started = true
	role := n.role
	n.lastContact = time.Now()
	n.mu.Unlock()
	n.ctx, n.cancel = context.WithCancel(ctx)
	if !n.replicated {
		return nil
	}
	if role == RolePrimary {
		return n.startPrimary(n.ctx)
	}
	n.wg.Add(1)
	go n.runFollower(n.ctx)
	return nil
}

// Close shuts the node down: replication links drop, outstanding
// journal waits fail retryably, a final snapshot is compacted, and the
// WAL is released.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	l := n.repln
	n.repln = nil
	pl := n.preListener
	n.preListener = nil
	fcs := make([]*followerConn, 0, len(n.followers))
	for fc := range n.followers {
		fcs = append(fcs, fc)
	}
	n.followers = make(map[*followerConn]struct{})
	lnk := n.link
	n.link = nil
	rc := n.relay
	n.relay = nil
	ws := n.waiters
	n.waiters = nil
	n.mu.Unlock()

	for _, w := range ws {
		w.ch <- false
	}
	if n.cancel != nil {
		n.cancel()
	}
	if l != nil {
		l.Close()
	}
	if pl != nil {
		pl.Close()
	}
	for _, fc := range fcs {
		fc.conn.Close()
	}
	if lnk != nil {
		lnk.shutdown()
	}
	if rc != nil {
		rc.Close()
	}
	n.wg.Wait()
	n.backend.shutdown()

	err := n.wal.Compact(n.srv.SaveState)
	if cerr := n.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Server exposes the embedded auth server (enrollment runs through
// it; mutations replicate via the attached journal).
func (n *Node) Server() *auth.Server { return n.srv }

// Backend returns the node's TxBackend: direct execution when
// primary, delegated issuance plus local verification when follower.
// Wire servers for this node are built around it.
func (n *Node) Backend() auth.TxBackend { return n.backend }

// NewWireServer builds a wire server that serves this node's backend.
func (n *Node) NewWireServer(cfg auth.WireConfig) (*auth.WireServer, error) {
	return auth.NewWireServerBackend(n.backend, cfg)
}

// Role reports the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term reports the node's current primary term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Status reports the node's replication state.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{
		NodeIndex:    n.cfg.NodeIndex,
		Role:         n.role,
		Term:         n.term,
		PrimaryIndex: n.primaryIdx,
		CommitSeq:    n.wal.CommittedSeq(),
		AppliedSeq:   n.appliedSeq,
		Lag:          n.lag,
		Followers:    len(n.followers),
	}
	if n.role == RolePrimary {
		st.Acked = make(map[int]uint64, len(n.acked))
		for i, s := range n.acked {
			st.Acked[i] = s
		}
	}
	return st
}

func (n *Node) isPrimary() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RolePrimary
}

// currentLink returns the live link to the primary, if any.
func (n *Node) currentLink() *primaryLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.link
}

// sleep waits d or until ctx is done.
func (n *Node) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (n *Node) log(format string, args ...any) {
	n.logf("cluster[%d]: "+format, append([]any{n.cfg.NodeIndex}, args...)...)
}
