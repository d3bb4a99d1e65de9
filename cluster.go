package authenticache

import (
	"context"
	"net"

	"repro/internal/auth"
	"repro/internal/cluster"
)

// Replicated deployment surface: a single-primary cluster of authd
// nodes with WAL shipping, lease-based failover, read-scaled
// challenge issuance on followers, and a consistent-hash router for
// spreading client load across the fleet. See DESIGN.md §10.

// ClusterNode is one member of a replicated authd cluster.
type ClusterNode = cluster.Node

// ClusterConfig describes one node's place in the cluster. Node 0 is
// the initial primary; a follower serves reads while it trails the
// primary by at most a fixed 512 records.
type ClusterConfig = cluster.Config

// ClusterStatus is a point-in-time replication snapshot of a node.
type ClusterStatus = cluster.Status

// ClusterRole distinguishes the primary from followers.
type ClusterRole = cluster.Role

// Cluster roles.
const (
	RoleFollower = cluster.RoleFollower
	RolePrimary  = cluster.RolePrimary
)

// ClusterDialFunc customises how a node reaches its peers (fault
// injection, TLS wrapping).
type ClusterDialFunc = cluster.DialFunc

// TxBackend executes the two halves of authentication and key-update
// transactions; servers, cluster nodes, and routers all implement it.
type TxBackend = auth.TxBackend

// AuthVerdict is FinishAuth's outcome.
type AuthVerdict = auth.AuthVerdict

// NewWireServerBackend exposes an arbitrary transaction backend — a
// cluster node's role-aware backend, a forwarding Router — over the
// same hardened wire front end a plain Server gets.
func NewWireServerBackend(be TxBackend, cfg WireConfig) (*WireServer, error) {
	return auth.NewWireServerBackend(be, cfg)
}

// OpenClusterNode opens (or recovers) one cluster node from its WAL
// directory. Start it to join the cluster.
func OpenClusterNode(cfg ClusterConfig) (*ClusterNode, error) { return cluster.Open(cfg) }

// Router forwards authentication transactions to each client's
// consistent-hash owner node.
type Router = cluster.Router

// RouterConfig describes the fleet a Router forwards into. Every
// router breaks circuits, hedges reads and skips hedge targets beyond
// the same 512-record staleness bound the followers enforce.
type RouterConfig = cluster.RouterConfig

// NewRouter builds a consistent-hash forwarding backend over the
// fleet's client-facing addresses.
func NewRouter(cfg RouterConfig) *Router { return cluster.NewRouter(cfg) }

// Ring is the consistent-hash placement a Router uses, exposed for
// monitoring and capacity planning.
type Ring = cluster.Ring

// NewRing builds the placement ring a Router uses over nodes node
// indexes.
func NewRing(nodes int) *Ring { return cluster.NewRing(nodes) }

// PeerStatus is the router's failure-detector view of one peer: probe
// RTT and replication frontier from the background prober, circuit
// state from the per-peer breaker.
type PeerStatus = cluster.PeerStatus

// DeadlineBudget splits a caller's context deadline evenly across the
// retry or hedge attempts still owed, so one hung peer cannot consume
// the whole request allowance.
type DeadlineBudget = auth.DeadlineBudget

// RelayClient is a pooled forwarding connection to one authd node's
// client port; RouterConfig.Dial seams build these over custom
// transports (fault gates, TLS).
type RelayClient = auth.RelayClient

// DialRelay connects a relay client to a node's client-facing address.
func DialRelay(ctx context.Context, addr string) (*RelayClient, error) {
	return auth.DialRelay(ctx, addr)
}

// NewRelayClient wraps an already-established connection as a relay
// client, for callers that dial (or gate) the transport themselves.
func NewRelayClient(conn net.Conn) (*RelayClient, error) { return auth.NewRelayClient(conn) }
