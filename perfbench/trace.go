package main

import (
	"context"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/crp"
	"repro/internal/mapkey"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced run wraps seams the program already exposes and times
// the calls across them; nothing inside the program is instrumented.
// Every span carries the transaction id of the device operation it
// served: the device index and its operation sequence.

// span is one timed call across a seam; times are nanoseconds since
// the tracer's epoch.
type span struct {
	name       string
	tx         uint64
	start, end int64
}

// txInfo describes a client transaction the spans of one tx id belong
// to.
type txInfo struct {
	kind opKind
	// rotated marks the first authentication after a key update.
	rotated bool
}

// counters are counted at the same seams as the spans.
type counters struct {
	clientBytes  atomic.Int64 // client connections, both directions
	serverWrites atomic.Int64 // Write calls on client-facing server conns
	walBytes     atomic.Int64 // bytes written to WAL segments
	walSyncs     atomic.Int64 // fsyncs of segments and the WAL directory
	walSyncNs    atomic.Int64
	replBytes    atomic.Int64 // replication links, counted at both ends
	relayBegins  atomic.Int64 // BeginAuth frames the router relays
}

type counterSnap struct {
	clientBytes, serverWrites, walBytes, walSyncs, walSyncNs, replBytes, relayBegins int64
}

func (c *counters) snap() counterSnap {
	return counterSnap{
		clientBytes:  c.clientBytes.Load(),
		serverWrites: c.serverWrites.Load(),
		walBytes:     c.walBytes.Load(),
		walSyncs:     c.walSyncs.Load(),
		walSyncNs:    c.walSyncNs.Load(),
		replBytes:    c.replBytes.Load(),
		relayBegins:  c.relayBegins.Load(),
	}
}

func (a counterSnap) sub(b counterSnap) counterSnap {
	return counterSnap{
		clientBytes:  a.clientBytes - b.clientBytes,
		serverWrites: a.serverWrites - b.serverWrites,
		walBytes:     a.walBytes - b.walBytes,
		walSyncs:     a.walSyncs - b.walSyncs,
		walSyncNs:    a.walSyncNs - b.walSyncNs,
		replBytes:    a.replBytes - b.replBytes,
		relayBegins:  a.relayBegins - b.relayBegins,
	}
}

func (a counterSnap) plus(b counterSnap) counterSnap {
	return counterSnap{
		clientBytes:  a.clientBytes + b.clientBytes,
		serverWrites: a.serverWrites + b.serverWrites,
		walBytes:     a.walBytes + b.walBytes,
		walSyncs:     a.walSyncs + b.walSyncs,
		walSyncNs:    a.walSyncNs + b.walSyncNs,
		replBytes:    a.replBytes + b.replBytes,
		relayBegins:  a.relayBegins + b.relayBegins,
	}
}

// tracer keeps spans in memory while recording is on; they are written
// out when the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	c     counters

	// cur maps each device to its current transaction; the map itself
	// is filled before traffic and only read afterwards.
	cur map[auth.ClientID]*atomic.Uint64

	mu    sync.Mutex
	spans []span
	txs   map[uint64]txInfo
}

func newTracer(devs []*device) *tracer {
	t := &tracer{
		epoch: time.Now(),
		cur:   make(map[auth.ClientID]*atomic.Uint64, len(devs)),
		spans: make([]span, 0, 1<<16),
		txs:   make(map[uint64]txInfo),
	}
	for _, d := range devs {
		t.cur[d.id] = new(atomic.Uint64)
	}
	return t
}

func txID(dev int, seq uint32) uint64 { return uint64(dev+1)<<32 | uint64(seq) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin returns the start time of a span, or false when recording is
// off (or the run is untraced: t is nil).
func (t *tracer) begin() (int64, bool) {
	if t == nil || !t.on.Load() {
		return 0, false
	}
	return t.now(), true
}

func (t *tracer) end(name string, tx uint64, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, tx: tx, start: start, end: end})
	t.mu.Unlock()
}

// setOn turns span recording on or off; a nil tracer stays off.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// txOf returns the transaction a device is running.
func (t *tracer) txOf(id string) uint64 {
	if c := t.cur[auth.ClientID(id)]; c != nil {
		return c.Load()
	}
	return 0
}

// startTx publishes a device's new transaction to the server-side
// wrappers.
func (t *tracer) startTx(d *device, tx uint64, info txInfo) {
	if t == nil {
		return
	}
	t.cur[d.id].Store(tx)
	if t.on.Load() {
		t.mu.Lock()
		t.txs[tx] = info
		t.mu.Unlock()
	}
}

// reset drops recorded spans (after the closed loop).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.txs = make(map[uint64]txInfo)
	t.mu.Unlock()
}

// --- TxBackend ---------------------------------------------------------------

// tracedBackend times the four transaction halves of a TxBackend. layer
// names the spans: "server" (a node's wire front end), "router",
// "primary" or "follower" (a cluster node behind the router).
type tracedBackend struct {
	inner auth.TxBackend
	t     *tracer
	layer string
}

func (b tracedBackend) BeginAuth(ctx context.Context, id auth.ClientID) (*crp.Challenge, error) {
	s, on := b.t.begin()
	ch, err := b.inner.BeginAuth(ctx, id)
	if on {
		b.t.end(b.layer+".begin", b.t.txOf(string(id)), s)
	}
	return ch, err
}

func (b tracedBackend) FinishAuth(ctx context.Context, id auth.ClientID, challengeID uint64, resp crp.Response) (auth.AuthVerdict, error) {
	s, on := b.t.begin()
	v, err := b.inner.FinishAuth(ctx, id, challengeID, resp)
	if on {
		b.t.end(b.layer+".finish", b.t.txOf(string(id)), s)
	}
	return v, err
}

func (b tracedBackend) BeginRemapTx(ctx context.Context, id auth.ClientID) (*auth.RemapRequest, error) {
	s, on := b.t.begin()
	req, err := b.inner.BeginRemapTx(ctx, id)
	if on {
		b.t.end(b.layer+".remap", b.t.txOf(string(id)), s)
	}
	return req, err
}

func (b tracedBackend) FinishRemapTx(ctx context.Context, id auth.ClientID, success bool) error {
	s, on := b.t.begin()
	err := b.inner.FinishRemapTx(ctx, id, success)
	if on {
		b.t.end(b.layer+".remap", b.t.txOf(string(id)), s)
	}
	return err
}

// --- auth.Device ------------------------------------------------------------

// clientDevice wraps a device's simulated silicon: it notes which
// authentication planes the device has answered on (warm-up runs until
// both have been), and in a traced run it times the silicon.
type clientDevice struct {
	auth.Device
	t      *tracer // nil when untraced
	id     string
	planes atomic.Uint32 // bit i: answered on authVdds[i]
}

func (d *clientDevice) Respond(ch *crp.Challenge, key mapkey.Key) (crp.Response, error) {
	if len(ch.Bits) > 0 {
		for i, v := range authVdds {
			if ch.Bits[0].VddMV == v {
				// One transaction per device at a time: no racing writer.
				d.planes.Store(d.planes.Load() | 1<<i)
			}
		}
	}
	s, on := d.t.begin()
	r, err := d.Device.Respond(ch, key)
	if on {
		d.t.end("device.respond", d.t.txOf(d.id), s)
	}
	return r, err
}

func (d *clientDevice) RespondDefault(ch *crp.Challenge) (crp.Response, error) {
	s, on := d.t.begin()
	r, err := d.Device.RespondDefault(ch)
	if on {
		d.t.end("device.remap", d.t.txOf(d.id), s)
	}
	return r, err
}

// --- auth.Journal -----------------------------------------------------------

// tracedJournal times the journal writes of traffic: the caller waits
// in them for the WAL's group commit.
type tracedJournal struct {
	auth.Journal
	t *tracer
}

func (j tracedJournal) JournalBurn(id string, pairs []crp.PairBit, nextID uint64, crps int) error {
	s, on := j.t.begin()
	err := j.Journal.JournalBurn(id, pairs, nextID, crps)
	if on {
		j.t.end("wal.journal", j.t.txOf(id), s)
	}
	return err
}

func (j tracedJournal) JournalRemap(id string, key [32]byte) error {
	s, on := j.t.begin()
	err := j.Journal.JournalRemap(id, key)
	if on {
		j.t.end("wal.journal", j.t.txOf(id), s)
	}
	return err
}

func (j tracedJournal) JournalCounter(id string, nextID uint64) error {
	s, on := j.t.begin()
	err := j.Journal.JournalCounter(id, nextID)
	if on {
		j.t.end("wal.journal", j.t.txOf(id), s)
	}
	return err
}

// --- wal.FS -----------------------------------------------------------------

// countingFS counts the bytes and fsyncs of WAL segments.
type countingFS struct {
	wal.FS
	c *counters
}

func (f countingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: file, c: f.c}, nil
}

func (f countingFS) SyncDir(dir string) error {
	s := time.Now()
	err := f.FS.SyncDir(dir)
	f.c.walSyncs.Add(1)
	f.c.walSyncNs.Add(int64(time.Since(s)))
	return err
}

type countingFile struct {
	wal.File
	c *counters
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.walBytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	s := time.Now()
	err := f.File.Sync()
	f.c.walSyncs.Add(1)
	f.c.walSyncNs.Add(int64(time.Since(s)))
	return err
}

// --- net.Conn ---------------------------------------------------------------

// countingConn counts the bytes crossing a connection and, optionally,
// its Write calls and the frames of one opcode it writes.
type countingConn struct {
	net.Conn
	bytes  *atomic.Int64
	writes *atomic.Int64
	frames *opCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	if c.writes != nil {
		c.writes.Add(1)
	}
	if c.frames != nil {
		c.frames.feed(p[:n])
	}
	return n, err
}

// countingListener hands out counting connections.
type countingListener struct {
	net.Listener
	bytes  *atomic.Int64
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: l.bytes, writes: l.writes}, nil
}

// opCounter follows the v2 byte stream a client writes (preamble, then
// 11-byte headers and payloads) and counts the frames of one opcode.
type opCounter struct {
	op wire.Opcode
	n  *atomic.Int64

	mu   sync.Mutex
	skip int // preamble or payload bytes still to pass over
	hdr  []byte
}

func newOpCounter(op wire.Opcode, n *atomic.Int64) *opCounter {
	return &opCounter{op: op, n: n, skip: wire.PreambleLen}
}

func (c *opCounter) feed(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(p) > 0 {
		if c.skip > 0 {
			k := min(c.skip, len(p))
			c.skip -= k
			p = p[k:]
			continue
		}
		k := min(wire.HeaderLen-len(c.hdr), len(p))
		c.hdr = append(c.hdr, p[:k]...)
		p = p[k:]
		if len(c.hdr) < wire.HeaderLen {
			return
		}
		h, err := wire.ParseHeader(c.hdr)
		c.hdr = c.hdr[:0]
		if err != nil {
			// Lost framing: stop counting rather than guess.
			c.skip = int(^uint(0) >> 1)
			return
		}
		if h.Op == c.op {
			c.n.Add(1)
		}
		c.skip = h.Len
	}
}

// relayDial is a RouterConfig.Dial that counts the BeginAuth frames
// the router sends each node.
func (t *tracer) relayDial(ctx context.Context, addr string) (*auth.RelayClient, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return auth.NewRelayClient(&countingConn{
		Conn:   conn,
		bytes:  new(atomic.Int64),
		frames: newOpCounter(wire.OpAuthenticate, &t.c.relayBegins),
	})
}

// replDial is a ClusterConfig.Dial that counts replication bytes at the
// follower's end.
func (t *tracer) replDial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, bytes: &t.c.replBytes}, nil
}
