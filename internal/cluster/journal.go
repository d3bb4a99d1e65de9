package cluster

import (
	"fmt"
	"time"

	"repro/internal/auth"
	"repro/internal/crp"
	"repro/internal/wal"
)

// clusterJournal is the auth.Journal a node attaches to its embedded
// server: every mutation appends to the local WAL and then waits for
// ReplicaAcks follower acknowledgements before the mutating call
// returns. On a follower it refuses outright — follower state mutates
// only by applying the replicated log, so a direct mutation reaching
// the journal means a client (or operator) asked a non-primary to
// write, and the retryable refusal sends it elsewhere.
//
// The wait is also the fencing mechanism: a deposed primary still
// passes the role check (it has not yet learned of its deposition) and
// still appends locally, but its followers are gone, no
// acknowledgement ever arrives, and the journal write — and with it
// the client's transaction — fails retryably. A primary that cannot
// reach a quorum of its followers cannot durably ack anything.
type clusterJournal struct{ n *Node }

func (j clusterJournal) JournalEnroll(id string, mapBytes []byte, key [32]byte, reserved []int) error {
	return j.n.replicate(&wal.Record{Type: wal.TypeEnroll, ClientID: id, MapBytes: mapBytes, Key: key, Reserved: reserved})
}

func (j clusterJournal) JournalBurn(id string, pairs []crp.PairBit, nextID uint64, crpsSinceRemap int) error {
	return j.n.replicate(&wal.Record{Type: wal.TypeBurn, ClientID: id, Pairs: pairs, NextID: nextID, CRPsSinceRemap: crpsSinceRemap})
}

func (j clusterJournal) JournalRemap(id string, newKey [32]byte) error {
	return j.n.replicate(&wal.Record{Type: wal.TypeRemap, ClientID: id, Key: newKey})
}

func (j clusterJournal) JournalCounter(id string, nextID uint64) error {
	return j.n.replicate(&wal.Record{Type: wal.TypeCounter, ClientID: id, NextID: nextID})
}

// replicate appends one record durably and waits for the configured
// follower acknowledgements.
func (n *Node) replicate(rec *wal.Record) error {
	if !n.isPrimary() {
		return notPrimaryErr(rec.ClientID)
	}
	seq, err := n.wal.AppendRecord(rec)
	if err != nil {
		return err
	}
	return n.waitReplicated(rec.ClientID, seq)
}

// ackWaiter is one journal write waiting for its quorum. ch is
// buffered and receives exactly one value: true when the quorum
// arrived, false when the node was deposed or closed first.
type ackWaiter struct {
	seq uint64
	ch  chan bool
}

// waitReplicated blocks until ReplicaAcks distinct followers have
// acknowledged seq, the node loses its primacy, or AckTimeout passes.
func (n *Node) waitReplicated(id string, seq uint64) error {
	n.mu.Lock()
	need := n.cfg.ReplicaAcks
	if !n.replicated || need <= 0 {
		n.mu.Unlock()
		return nil
	}
	if n.role != RolePrimary || n.closed {
		n.mu.Unlock()
		return notPrimaryErr(id)
	}
	if n.ackCountLocked(seq) >= need {
		n.mu.Unlock()
		return nil
	}
	w := &ackWaiter{seq: seq, ch: make(chan bool, 1)}
	n.waiters = append(n.waiters, w)
	n.mu.Unlock()

	t := time.NewTimer(n.cfg.AckTimeout)
	defer t.Stop()
	select {
	case ok := <-w.ch:
		if !ok {
			return notPrimaryErr(id)
		}
		return nil
	case <-t.C:
		n.removeWaiter(w)
		return unavailErrf(id, "record %d not replicated to %d followers within %v", seq, need, n.cfg.AckTimeout)
	case <-n.ctx.Done():
		n.removeWaiter(w)
		return unavailErrf(id, "node shutting down")
	}
}

// ackCountLocked counts followers whose acknowledged sequence covers
// seq. Callers hold n.mu.
func (n *Node) ackCountLocked(seq uint64) int {
	c := 0
	for _, a := range n.acked {
		if a >= seq {
			c++
		}
	}
	return c
}

// onAck records a follower acknowledgement and releases every waiter
// whose quorum it completes.
func (n *Node) onAck(idx int, seq uint64) {
	var done []*ackWaiter
	n.mu.Lock()
	if seq > n.acked[idx] {
		n.acked[idx] = seq
	}
	live := n.waiters[:0]
	for _, w := range n.waiters {
		if n.ackCountLocked(w.seq) >= n.cfg.ReplicaAcks {
			done = append(done, w)
		} else {
			live = append(live, w)
		}
	}
	n.waiters = live
	n.mu.Unlock()
	for _, w := range done {
		w.ch <- true
	}
}

// removeWaiter unregisters a waiter that stopped waiting (timeout or
// shutdown); racing signals drain harmlessly into the buffered
// channel.
func (n *Node) removeWaiter(w *ackWaiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, x := range n.waiters {
		if x == w {
			n.waiters = append(n.waiters[:i], n.waiters[i+1:]...)
			return
		}
	}
}

// notPrimaryErr is the retryable refusal of a mutation on a node that
// is not (or no longer) the primary.
func notPrimaryErr(id string) error {
	return &auth.AuthError{
		Code:     auth.CodeUnavailable,
		ClientID: auth.ClientID(id),
		Err:      fmt.Errorf("%w: node is not the primary", auth.ErrUnavailable),
	}
}

// configErrf reports a misconfigured or misused node as a typed,
// non-retryable *AuthError, so cluster constructors and lifecycle
// entry points obey the same taxonomy as the serving paths.
func configErrf(format string, args ...any) error {
	return &auth.AuthError{
		Code: auth.CodeInvalidRequest,
		Err:  fmt.Errorf("cluster: "+format, args...),
	}
}

// unavailErrf is a retryable cluster-level failure.
func unavailErrf(id string, format string, args ...any) error {
	return &auth.AuthError{
		Code:     auth.CodeUnavailable,
		ClientID: auth.ClientID(id),
		Err:      fmt.Errorf("%w: cluster: %s", auth.ErrUnavailable, fmt.Sprintf(format, args...)),
	}
}
