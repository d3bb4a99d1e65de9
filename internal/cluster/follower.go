package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Follower side of replication: chase the primary, adopt its
// snapshot, append and apply its record feed, acknowledge, and watch
// the lease. When the lease expires the deterministic successor — the
// next node index after the failed primary — promotes itself; everyone
// else probes forward through the ring until a node answers with a
// current term.

// runFollower is the follower main loop: it follows one primary until
// the link drops, then redials, advancing its primary guess whenever a
// full lease passes without contact, and promoting itself when the
// guess lands on its own index.
//
// Redial pacing is capped exponential backoff with seeded jitter,
// reusing the client retry policy's delay shape: a session that
// actually synced resets the run, so a briefly flapping link recovers
// at RedialInterval while a hard-down primary is probed ever more
// gently instead of being hammered at a fixed interval by every
// follower at once (the per-node seed decorrelates them).
func (n *Node) runFollower(ctx context.Context) {
	defer n.wg.Done()
	policy := auth.RetryPolicy{
		BaseDelay: n.cfg.RedialInterval,
		MaxDelay:  20 * n.cfg.RedialInterval,
	}.WithDefaults()
	jitter := rng.New(0x5eedf011 ^ uint64(n.cfg.NodeIndex))
	failed := 0
	for ctx.Err() == nil {
		target := n.followTarget()
		if target == n.cfg.NodeIndex {
			if err := n.promote(ctx); err != nil {
				n.log("promotion failed: %v", err)
				failed++
				n.sleep(ctx, policy.Delay(failed, jitter))
				continue
			}
			return
		}
		if n.followOnce(ctx, target) {
			failed = 0
		} else {
			failed++
		}
		if ctx.Err() == nil {
			n.sleep(ctx, policy.Delay(failed, jitter))
		}
	}
}

// followTarget returns the node currently believed to be primary,
// advancing the guess to its successor when the lease on the current
// belief has fully expired (the lease clock restarts per guess, so a
// dead successor is skipped after one more lease, and so on around the
// ring).
func (n *Node) followTarget() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if time.Since(n.lastContact) > n.cfg.LeaseTimeout {
		next := (n.primaryIdx + 1) % len(n.cfg.Peers)
		n.log("lease on node %d expired; probing node %d", n.primaryIdx, next)
		n.primaryIdx = next
		n.lastContact = time.Now()
	}
	return n.primaryIdx
}

// promote turns this follower into the primary under a new term.
func (n *Node) promote(ctx context.Context) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return context.Canceled
	}
	if n.role == RolePrimary {
		n.mu.Unlock()
		return nil
	}
	n.role = RolePrimary
	n.term++
	n.primaryIdx = n.cfg.NodeIndex
	n.acked = make(map[int]uint64)
	term := n.term
	rc := n.relay
	n.relay = nil
	n.mu.Unlock()
	if rc != nil {
		rc.Close()
	}
	n.log("promoting to primary at term %d (applied seq %d)", term, n.AppliedSeq())
	if err := n.startPrimary(ctx); err != nil {
		n.mu.Lock()
		n.role = RoleFollower
		n.mu.Unlock()
		return err
	}
	return nil
}

// AppliedSeq reports the last primary sequence this node applied
// (its own committed sequence when primary).
func (n *Node) AppliedSeq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RolePrimary {
		return n.wal.CommittedSeq()
	}
	return n.appliedSeq
}

// followOnce runs one replication session against target: hello,
// snapshot adoption, then the record feed until the link breaks. It
// reports whether the session got as far as a live feed (snapshot
// adopted, link up) — the redial loop's signal to reset its backoff.
func (n *Node) followOnce(ctx context.Context, target int) (synced bool) {
	dctx, cancel := context.WithTimeout(ctx, n.cfg.AckTimeout)
	conn, err := n.dial(dctx, "tcp", n.cfg.Peers[target])
	cancel()
	if err != nil {
		return
	}
	defer conn.Close()

	n.mu.Lock()
	myTerm := n.term
	n.mu.Unlock()
	pre := wire.Preamble()
	hello := append(make([]byte, 0, wire.PreambleLen+32), pre[:]...)
	hello = wire.AppendRepHello(hello, wire.RepHello{NodeIndex: uint32(n.cfg.NodeIndex), Term: myTerm})
	if err := conn.SetWriteDeadline(time.Now().Add(n.cfg.AckTimeout)); err != nil {
		return
	}
	if _, err := conn.Write(hello); err != nil {
		return
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	if err := conn.SetReadDeadline(time.Now().Add(4 * n.cfg.AckTimeout)); err != nil {
		return
	}
	// A primary that hangs up before its snapshot (it is no longer
	// primary, or is closing) ends the session quietly; a snapshot
	// frame that arrives and is refused says why.
	b := wire.GetBuf()
	if err := wire.ReadFrameInto(br, b, maxRepFrame); err != nil {
		if !errors.Is(err, io.EOF) {
			n.log("snapshot from node %d: %v", target, err)
		}
		wire.PutBuf(b)
		return
	}
	if b.Op != wire.OpRepSnapshot {
		n.log("node %d sent %v where its snapshot belongs", target, b.Op)
		wire.PutBuf(b)
		return
	}
	snap, err := wire.DecodeRepSnapshot(b.B)
	if err != nil {
		n.log("snapshot from node %d: %v", target, err)
		wire.PutBuf(b)
		return
	}
	n.mu.Lock()
	if snap.Term < n.term || n.role != RoleFollower {
		n.log("refusing snapshot from node %d at term %d (at term %d, %v)", target, snap.Term, n.term, n.role)
		n.mu.Unlock()
		wire.PutBuf(b)
		return
	}
	n.term = snap.Term
	n.primaryIdx = target
	n.lastContact = time.Now()
	n.mu.Unlock()
	if err := n.srv.LoadState(bytes.NewReader(snap.State)); err != nil {
		n.log("adopt snapshot from node %d: %v", target, err)
		wire.PutBuf(b)
		return
	}
	wire.PutBuf(b)
	// Persist the adopted state and discard any divergent local tail
	// from a previous reign: after this compaction the local log is a
	// prefix of the primary's history again.
	if err := n.Compact(); err != nil {
		n.log("compact adopted snapshot: %v", err)
		return
	}

	lnk := newPrimaryLink(conn, n.cfg.AckTimeout)
	n.mu.Lock()
	n.link = lnk
	n.appliedSeq = snap.SnapSeq
	n.lag = 0
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		if n.link == lnk {
			n.link = nil
		}
		n.mu.Unlock()
		lnk.shutdown()
	}()
	n.log("following node %d at term %d from seq %d", target, snap.Term, snap.SnapSeq)
	if err := lnk.sendAck(snap.SnapSeq); err != nil {
		return
	}
	synced = true

	for {
		if ctx.Err() != nil {
			return
		}
		if err := conn.SetReadDeadline(time.Now().Add(n.cfg.LeaseTimeout)); err != nil {
			return
		}
		b := wire.GetBuf()
		if err := wire.ReadFrameInto(br, b, maxRepFrame); err != nil {
			wire.PutBuf(b)
			return
		}
		switch b.Op {
		case wire.OpRepRecord:
			rr, derr := wire.DecodeRepRecord(b.B)
			if derr != nil {
				wire.PutBuf(b)
				return
			}
			if aerr := n.applyReplicated(rr); aerr != nil {
				n.log("apply seq %d: %v", rr.Seq, aerr)
				wire.PutBuf(b)
				return
			}
			seq := rr.Seq
			wire.PutBuf(b)
			if err := lnk.sendAck(seq); err != nil {
				return
			}
		case wire.OpRepHeartbeat:
			hb, derr := wire.DecodeRepHeartbeat(b.B)
			wire.PutBuf(b)
			if derr != nil {
				return
			}
			applied := n.onHeartbeat(hb)
			// Acknowledging the heartbeat keeps the primary's read
			// deadline fed during idle stretches.
			if err := lnk.sendAck(applied); err != nil {
				return
			}
		case wire.OpRepGrant, wire.OpError:
			if b.Stream == 0 {
				// A stream-0 error is session-fatal.
				wire.PutBuf(b)
				return
			}
			lnk.deliver(b.Stream, b.Op, b.B)
			wire.PutBuf(b)
		default:
			wire.PutBuf(b)
			return
		}
	}
}

// applyReplicated makes one shipped record durable and visible:
// verbatim frame into the local log, the record AppendFrame decoded
// onto the replica through the idempotent appliers, both under applyMu
// so no compaction falls between them.
func (n *Node) applyReplicated(rr wire.RepRecord) error {
	n.applyMu.Lock()
	rec, err := n.wal.AppendFrame(rr.Frame)
	if err == nil {
		err = applyRecord(n.srv, rec)
	}
	n.applyMu.Unlock()
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.appliedSeq = rr.Seq
	n.lastContact = time.Now()
	n.mu.Unlock()
	return nil
}

// onHeartbeat renews the lease and updates the lag gauge, returning
// the applied sequence to acknowledge.
func (n *Node) onHeartbeat(hb wire.RepHeartbeat) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if hb.Term >= n.term {
		n.term = hb.Term
		n.lastContact = time.Now()
		if hb.CommitSeq > n.appliedSeq {
			n.lag = hb.CommitSeq - n.appliedSeq
		} else {
			n.lag = 0
		}
	}
	return n.appliedSeq
}

// primaryLink is a follower's live connection to its primary: the
// follower loop reads from it; delegated-issuance proposals write to
// it from request goroutines, multiplexed by stream id.
type primaryLink struct {
	conn    net.Conn
	timeout time.Duration

	// sendMu serialises writes; sendBuf is the ack scratch buffer.
	sendMu  sync.Mutex
	sendBuf []byte

	mu         sync.Mutex
	down       bool
	nextStream uint32
	pending    map[uint32]chan linkReply
}

// linkReply is one proposal answer (grant or typed error), payload
// copied out of the read buffer.
type linkReply struct {
	op      wire.Opcode
	payload []byte
}

func newPrimaryLink(conn net.Conn, timeout time.Duration) *primaryLink {
	return &primaryLink{conn: conn, timeout: timeout, pending: make(map[uint32]chan linkReply)}
}

// send writes one frame under the write deadline.
func (l *primaryLink) send(frame []byte) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if err := l.conn.SetWriteDeadline(time.Now().Add(l.timeout)); err != nil {
		return err
	}
	_, err := l.conn.Write(frame)
	return err
}

// sendAck acknowledges every record up to and including seq.
func (l *primaryLink) sendAck(seq uint64) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	l.sendBuf = wire.AppendRepAck(l.sendBuf[:0], seq)
	if err := l.conn.SetWriteDeadline(time.Now().Add(l.timeout)); err != nil {
		return err
	}
	_, err := l.conn.Write(l.sendBuf)
	return err
}

// propose sends one challenge proposal and waits for the primary's
// grant or refusal.
func (l *primaryLink) propose(ctx context.Context, id auth.ClientID, prop *auth.DelegatedProposal) (uint64, error) {
	l.mu.Lock()
	if l.down {
		l.mu.Unlock()
		return 0, unavailErrf(string(id), "replication link lost")
	}
	l.nextStream++
	if l.nextStream == 0 {
		l.nextStream = 1
	}
	stream := l.nextStream
	ch := make(chan linkReply, 1)
	l.pending[stream] = ch
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.pending, stream)
		l.mu.Unlock()
	}()

	frame := wire.AppendRepPropose(nil, stream, wire.RepPropose{
		ClientID: []byte(id),
		KeySum:   prop.KeySum,
		Pairs:    prop.Phys,
	})
	if err := l.send(frame); err != nil {
		return 0, unavailErrf(string(id), "propose: %v", err)
	}
	t := time.NewTimer(l.timeout)
	defer t.Stop()
	select {
	case r, ok := <-ch:
		if !ok {
			return 0, unavailErrf(string(id), "replication link lost mid-proposal")
		}
		switch r.op {
		case wire.OpRepGrant:
			chID, err := wire.DecodeRepGrant(r.payload)
			if err != nil {
				return 0, unavailErrf(string(id), "bad grant: %v", err)
			}
			return chID, nil
		case wire.OpError:
			// A malformed refusal stays retryable: invalid_request
			// would read as a lost race and resample.
			refusal, derr := auth.DecodeErrorFrame(r.payload)
			if derr != nil {
				return 0, unavailErrf(string(id), "bad proposal refusal: %v", derr)
			}
			return 0, refusal
		}
		return 0, unavailErrf(string(id), "unexpected proposal reply %q", r.op)
	case <-t.C:
		return 0, unavailErrf(string(id), "proposal unanswered within %v", l.timeout)
	case <-ctx.Done():
		return 0, &auth.AuthError{Code: auth.CodeUnavailable, ClientID: id, Err: ctx.Err()}
	}
}

// deliver routes one proposal answer to its waiting goroutine; answers
// for streams nobody waits on are dropped.
func (l *primaryLink) deliver(stream uint32, op wire.Opcode, payload []byte) {
	l.mu.Lock()
	ch := l.pending[stream]
	delete(l.pending, stream)
	l.mu.Unlock()
	if ch == nil {
		return
	}
	// The channel is buffered and removed from pending before the
	// send, so this never blocks; the select keeps that local.
	select {
	case ch <- linkReply{op: op, payload: append([]byte(nil), payload...)}:
	default:
	}
}

// shutdown fails every outstanding proposal and closes the socket.
func (l *primaryLink) shutdown() {
	l.mu.Lock()
	l.down = true
	chans := make([]chan linkReply, 0, len(l.pending))
	for _, ch := range l.pending {
		chans = append(chans, ch)
	}
	l.pending = make(map[uint32]chan linkReply)
	l.mu.Unlock()
	for _, ch := range chans {
		close(ch)
	}
	l.conn.Close()
}
