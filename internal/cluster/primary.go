package cluster

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/crp"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Primary side of replication: accept follower connections, fence by
// term, hand each follower a snapshot plus the committed-record feed,
// and read back acknowledgements and challenge proposals.

// startPrimary opens the replication listener and starts accepting
// followers. The pre-bound listener from Config is consumed on first
// use; re-promotion after a step-down binds the configured address.
func (n *Node) startPrimary(ctx context.Context) error {
	n.mu.Lock()
	l := n.preListener
	n.preListener = nil
	n.mu.Unlock()
	if l == nil {
		var err error
		l, err = net.Listen("tcp", n.cfg.Peers[n.cfg.NodeIndex])
		if err != nil {
			return err
		}
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		l.Close()
		return unavailErrf("", "node %d closed", n.cfg.NodeIndex)
	}
	n.repln = l
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop(ctx, l)
	return nil
}

// acceptLoop admits follower replication sessions until the listener
// closes (shutdown or step-down).
func (n *Node) acceptLoop(ctx context.Context, l net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go n.serveFollower(ctx, conn)
	}
}

// followerConn is one live replication session with a follower.
type followerConn struct {
	n    *Node
	conn net.Conn
	idx  int

	// sendMu serialises writes from the record stream, the heartbeat
	// ticker, and proposal replies.
	sendMu sync.Mutex
}

// send writes one frame under the write deadline.
func (fc *followerConn) send(frame []byte) error {
	fc.sendMu.Lock()
	defer fc.sendMu.Unlock()
	if err := fc.conn.SetWriteDeadline(time.Now().Add(fc.n.cfg.AckTimeout)); err != nil {
		return err
	}
	_, err := fc.conn.Write(frame)
	return err
}

// serveFollower runs one replication session: preamble, hello, term
// fence, snapshot handoff, then the concurrent stream/read loops.
func (n *Node) serveFollower(ctx context.Context, conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(4 * n.cfg.AckTimeout)); err != nil {
		return
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var pre [wire.PreambleLen]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != wire.Preamble() {
		return
	}
	b := wire.GetBuf()
	if err := wire.ReadFrameInto(br, b, maxRepFrame); err != nil || b.Op != wire.OpRepHello {
		wire.PutBuf(b)
		return
	}
	hello, err := wire.DecodeRepHello(b.B)
	wire.PutBuf(b)
	if err != nil {
		return
	}

	n.mu.Lock()
	if n.role != RolePrimary || n.closed {
		n.mu.Unlock()
		return
	}
	if hello.Term > n.term {
		n.mu.Unlock()
		n.log("hello from node %d carries term %d: stepping down", hello.NodeIndex, hello.Term)
		n.stepDown(ctx, hello.Term)
		return
	}
	term := n.term
	// Subscribe before snapshotting: every record committed after this
	// boundary reaches the follower through the feed; records in both
	// snapshot and feed re-apply idempotently.
	sub, snapSeq := n.wal.Subscribe(subscribeBuf)
	n.mu.Unlock()
	defer sub.Close()

	var state bytes.Buffer
	if err := n.srv.SaveState(&state); err != nil {
		n.log("snapshot for node %d: %v", hello.NodeIndex, err)
		return
	}
	fc := &followerConn{n: n, conn: conn, idx: int(hello.NodeIndex)}
	frame := wire.AppendRepSnapshot(nil, wire.RepSnapshot{Term: term, SnapSeq: snapSeq, State: state.Bytes()})
	if size := len(frame) - wire.HeaderLen; size > maxRepFrame {
		n.log("snapshot for node %d takes %d bytes, over the %d-byte frame cap: dropping the session", hello.NodeIndex, size, maxRepFrame)
		return
	}
	if err := fc.send(frame); err != nil {
		return
	}

	n.mu.Lock()
	if n.role != RolePrimary || n.closed {
		n.mu.Unlock()
		return
	}
	n.followers[fc] = struct{}{}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.followers, fc)
		n.mu.Unlock()
	}()
	n.log("follower %d connected (snapshot at seq %d, term %d)", fc.idx, snapSeq, term)

	n.wg.Add(1)
	go fc.streamLoop(ctx, term, sub)
	fc.readLoop(ctx, br)
}

// streamLoop ships committed records and heartbeats to one follower
// until the subscription, connection, or node context ends. A
// subscription overrun (follower too far behind) closes the feed and
// with it the connection; the follower re-syncs by snapshot.
func (fc *followerConn) streamLoop(ctx context.Context, term uint64, sub *wal.Subscription) {
	defer fc.n.wg.Done()
	ticker := time.NewTicker(fc.n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	var frame []byte
	for {
		select {
		case c, ok := <-sub.C():
			if !ok {
				fc.n.log("follower %d overran the feed; forcing re-sync", fc.idx)
				fc.conn.Close()
				return
			}
			frame = wire.AppendRepRecord(frame[:0], wire.RepRecord{Seq: c.Seq, Frame: c.Frame})
			if err := fc.send(frame); err != nil {
				fc.conn.Close()
				return
			}
		case <-ticker.C:
			frame = wire.AppendRepHeartbeat(frame[:0], wire.RepHeartbeat{Term: term, CommitSeq: fc.n.wal.CommittedSeq()})
			if err := fc.send(frame); err != nil {
				fc.conn.Close()
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// readLoop consumes follower frames: acknowledgements on stream 0,
// challenge proposals on nonzero streams. Proposals are handled in
// their own goroutines so a proposal waiting on its own burn's
// replication quorum never blocks the acknowledgements that satisfy
// it.
func (fc *followerConn) readLoop(ctx context.Context, br *bufio.Reader) {
	// The first frame acknowledges the snapshot, which the follower
	// sends only once it has loaded and persisted it: that gets the
	// hello's allowance, not a lease, or a large state would be cut
	// off and re-sent forever.
	wait := 4 * fc.n.cfg.AckTimeout
	for {
		if ctx.Err() != nil {
			return
		}
		if err := fc.conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
			return
		}
		wait = fc.n.cfg.LeaseTimeout
		b := wire.GetBuf()
		if err := wire.ReadFrameInto(br, b, maxRepFrame); err != nil {
			wire.PutBuf(b)
			return
		}
		switch b.Op {
		case wire.OpRepAck:
			seq, err := wire.DecodeRepAck(b.B)
			wire.PutBuf(b)
			if err != nil {
				return
			}
			fc.n.onAck(fc.idx, seq)
		case wire.OpRepPropose:
			pr, err := wire.DecodeRepPropose(b.B)
			if err != nil {
				wire.PutBuf(b)
				return
			}
			stream := b.Stream
			id := auth.ClientID(string(pr.ClientID))
			keySum := pr.KeySum
			pairs := pr.Pairs
			wire.PutBuf(b)
			fc.n.wg.Add(1)
			go fc.handlePropose(ctx, stream, id, keySum, pairs)
		default:
			wire.PutBuf(b)
			return
		}
	}
}

// handlePropose validates and burns one follower-sampled challenge,
// answering with a grant or a typed error on the proposal's stream.
func (fc *followerConn) handlePropose(ctx context.Context, stream uint32, id auth.ClientID, keySum uint64, pairs []crp.PairBit) {
	defer fc.n.wg.Done()
	chID, err := fc.n.srv.ApproveBurn(ctx, id, pairs, keySum)
	var frame []byte
	if err != nil {
		frame = auth.AppendErrorFrame(nil, stream, err)
	} else {
		frame = wire.AppendRepGrant(nil, stream, chID)
	}
	if err := fc.send(frame); err != nil {
		fc.conn.Close()
	}
}

// stepDown demotes a primary that learned of a higher term: the
// listener and every follower session close, outstanding journal
// waits fail retryably, and the node rejoins the cluster as a
// follower probing for the new primary.
func (n *Node) stepDown(ctx context.Context, newTerm uint64) {
	n.mu.Lock()
	if n.role != RolePrimary {
		if newTerm > n.term {
			n.term = newTerm
		}
		n.mu.Unlock()
		return
	}
	n.role = RoleFollower
	if newTerm > n.term {
		n.term = newTerm
	}
	n.primaryIdx = (n.cfg.NodeIndex + 1) % len(n.cfg.Peers)
	n.lastContact = time.Now()
	l := n.repln
	n.repln = nil
	fcs := make([]*followerConn, 0, len(n.followers))
	for fc := range n.followers {
		fcs = append(fcs, fc)
	}
	n.followers = make(map[*followerConn]struct{})
	n.acked = make(map[int]uint64)
	ws := n.waiters
	n.waiters = nil
	closed := n.closed
	n.mu.Unlock()

	for _, w := range ws {
		w.ch <- false
	}
	if l != nil {
		l.Close()
	}
	for _, fc := range fcs {
		fc.conn.Close()
	}
	if closed {
		return
	}
	n.wg.Add(1)
	go n.runFollower(ctx)
}
