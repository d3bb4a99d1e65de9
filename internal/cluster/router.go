package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/auth"
	"repro/internal/crp"
)

// Router is a thin forwarding TxBackend: it consistent-hashes each
// client id to its owning node and forwards the transaction halves
// over pooled relay connections, pinning nothing heavier than the
// open transaction handle locally (verdicts carry the confirmation
// tag, so a router never holds session keys). A router runs as a
// stateless ingress tier (Self < 0), or beside a node (Self = that
// node's index), which it then neither sends reads to nor probes.
//
// The router is also the cluster's resilience control plane. Every
// peer gets a circuit breaker fed by attempt outcomes and by the
// background prober Start launches; forwards carve per-attempt
// deadlines out of the caller's context so a hung peer can never pin
// a request goroutine; and read-path forwards (challenge issuance —
// verification continues on whichever node issued) hedge to the ring
// successor when the owner is open or slow. Write-path forwards (key
// updates) are primary-affine and never hedge: they fail fast with a
// retryable unavailable instead, because two racing remap halves on
// different nodes could burn reserved pairs twice.
type Router struct {
	cfg  RouterConfig
	ring *Ring
	// breakers and health are index-aligned with cfg.ClientPeers and
	// immutable after NewRouter; each element carries its own lock, so
	// they are read without Router.mu.
	breakers []*breaker
	health   *healthTracker

	mu     sync.Mutex
	closed bool
	// cancel stops the background prober; set once by Start.
	cancel context.CancelFunc
	relays map[int]*auth.RelayClient
	auths  map[authTxKey]pendingAuthTx
	remaps map[auth.ClientID]pendingRemapTx
	// wg accounts every router goroutine — hedged attempts, the
	// prober, the sweep's fire-and-forget Abandons — so Close does not
	// race them against relay teardown.
	wg sync.WaitGroup
}

// RouterConfig describes the fleet a Router forwards into.
type RouterConfig struct {
	// ClientPeers lists every node's client-facing address; the ring is
	// built over their indexes.
	ClientPeers []string
	// Self is the index of the co-located node, kept out of read
	// targets and probes; -1 for a standalone router.
	Self int

	// Dial opens relay connections (default auth.DialRelay); chaos
	// tests inject fault-gated dialers here.
	Dial func(ctx context.Context, addr string) (*auth.RelayClient, error)
	// BreakerThreshold is the consecutive-failure run that opens a
	// peer's circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is the open breaker's pause before its half-open
	// trial window, jittered over [0.5, 1]× per breaker (default
	// 500ms).
	BreakerCooldown time.Duration
	// HedgeDelay is how long a read-path forward's first attempt may
	// stay unanswered before a hedge launches at the ring successor
	// (default 20ms). An open owner breaker skips the wait entirely and
	// goes straight to the successor.
	HedgeDelay time.Duration
	// Budget splits a forward's context deadline across its attempts;
	// zero fields get the auth.DeadlineBudget defaults (50ms floor, 2s
	// default allowance).
	Budget auth.DeadlineBudget
	// ProbeInterval paces the background prober Start launches
	// (default 250ms). Each probe is also bounded by one interval.
	ProbeInterval time.Duration
	// Seed drives breaker cooldown jitter, making it reproducible; 0
	// draws a fresh seed per router, so routers that saw a peer fail
	// together do not re-probe it in lockstep.
	Seed uint64
}

// txTTL bounds how long a begun-but-unfinished forwarded transaction
// is held before it is abandoned.
const txTTL = 30 * time.Second

type authTxKey struct {
	id   auth.ClientID
	chID uint64
}

type pendingAuthTx struct {
	tx *auth.RelayAuthTx
	// node is where the winning BeginAuth attempt landed; FinishAuth
	// must follow it there (the challenge is pinned to that node) and
	// feeds its breaker.
	node int
	at   time.Time
}

type pendingRemapTx struct {
	tx   *auth.RelayRemapTx
	node int
	at   time.Time
}

// NewRouter builds a router over cfg.ClientPeers.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Self >= len(cfg.ClientPeers) {
		cfg.Self = -1
	}
	if cfg.Dial == nil {
		cfg.Dial = auth.DialRelay
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 500 * time.Millisecond
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = 20 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = rand.Uint64()
	}
	cfg.Budget = cfg.Budget.WithBudgetDefaults()
	r := &Router{
		cfg:      cfg,
		ring:     NewRing(len(cfg.ClientPeers)),
		breakers: make([]*breaker, len(cfg.ClientPeers)),
		health:   newHealthTracker(len(cfg.ClientPeers)),
		relays:   make(map[int]*auth.RelayClient),
		auths:    make(map[authTxKey]pendingAuthTx),
		remaps:   make(map[auth.ClientID]pendingRemapTx),
	}
	for i := range r.breakers {
		r.breakers[i] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Seed+uint64(i))
	}
	return r
}

// Owner exposes the ring placement (monitoring, tests).
func (r *Router) Owner(id auth.ClientID) int { return r.ring.Owner(string(id)) }

// Peers reports the failure detector's view of every peer: probe
// RTT/staleness from the tracker, circuit state from the breakers.
func (r *Router) Peers() []PeerStatus {
	now := time.Now()
	out := make([]PeerStatus, len(r.cfg.ClientPeers))
	for i := range out {
		out[i] = r.health.status(i)
		out[i].Breaker = r.breakers[i].State(now).String()
	}
	return out
}

// Start launches the background prober: every ProbeInterval it runs a
// probe/health exchange against each peer over the pooled relay
// connection, feeding the health tracker and driving breaker recovery
// (an answered probe closes the peer's breaker without waiting for
// live traffic to trial it). ctx bounds the prober; Close also stops
// it. Start is optional — an unstarted router still breaks and hedges
// on request-path evidence alone, it just probes nothing in the
// background.
func (r *Router) Start(ctx context.Context) {
	pctx, cancel := context.WithCancel(ctx)
	r.mu.Lock()
	if r.closed || r.cancel != nil {
		r.mu.Unlock()
		cancel()
		return
	}
	r.cancel = cancel
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.probeLoop(pctx)
	}()
}

// probeLoop drives the prober until its context dies.
func (r *Router) probeLoop(ctx context.Context) {
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for node := range r.cfg.ClientPeers {
				if node == r.cfg.Self || ctx.Err() != nil {
					continue
				}
				r.probeOne(ctx, node)
			}
		}
	}
}

// probeOne measures one peer. Success feeds the tracker and closes
// the peer's breaker; failure counts toward opening it — the prober is
// the detector's primary evidence stream, request outcomes the
// supplementary one.
func (r *Router) probeOne(ctx context.Context, node int) {
	pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeInterval)
	defer cancel()
	rc, err := r.relay(pctx, node)
	if err != nil {
		err = classifyDial(ctx, "", node, err)
	} else {
		var h auth.PeerHealth
		var rtt time.Duration
		h, rtt, err = rc.Probe(pctx)
		if err == nil {
			r.health.observe(node, rtt, h, time.Now())
			r.breakers[node].Success()
			return
		}
		err = classifyAttempt(pctx, ctx, "", err)
		r.drop(node, rc, err)
	}
	if ctx.Err() != nil {
		// Shutdown, not peer death.
		return
	}
	r.health.observeFailure(node)
	r.account(node, err)
}

// BeginAuth forwards the opening half to the owner — hedging to the
// ring successor when the owner is open or slow — and parks the
// transaction handle for FinishAuth.
func (r *Router) BeginAuth(ctx context.Context, id auth.ClientID) (*crp.Challenge, error) {
	cands := r.ring.Owners(string(id), 2)
	ch, node, tx, err := r.beginAuthHedged(ctx, id, r.readTargets(cands))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.sweepLocked(time.Now())
	if r.closed {
		r.mu.Unlock()
		tx.Abandon()
		return nil, unavailErrf(string(id), "router closed")
	}
	r.auths[authTxKey{id: id, chID: ch.ID}] = pendingAuthTx{tx: tx, node: node, at: time.Now()}
	r.mu.Unlock()
	return ch, nil
}

// readTargets filters the hedging candidates for a read-path forward:
// the co-located node is excluded, peers with open breakers are
// skipped, and a hedge fallback known to be beyond the staleness bound
// is not worth an attempt (its own guard would refuse anyway).
func (r *Router) readTargets(cands []int) []int {
	now := time.Now()
	out := make([]int, 0, len(cands))
	for i, node := range cands {
		if node == r.cfg.Self {
			continue
		}
		if !r.breakers[node].Allow(now) {
			continue
		}
		if i > 0 {
			if lag, known := r.health.staleness(node); known && lag > maxStaleness {
				continue
			}
		}
		out = append(out, node)
	}
	return out
}

// beginResult is one hedged attempt's outcome.
type beginResult struct {
	node int
	ch   *crp.Challenge
	tx   *auth.RelayAuthTx
	err  error
}

// beginAuthHedged forwards the opening half to targets[0], launching
// a hedge at targets[1] when the first attempt stays unanswered past
// HedgeDelay or fails retryably before it. First success wins through
// a claim flag; a losing attempt that also succeeded abandons its own
// transaction, so hedging never leaks a stream. Each attempt runs
// under a deadline carved from the caller's remaining budget.
func (r *Router) beginAuthHedged(ctx context.Context, id auth.ClientID, targets []int) (*crp.Challenge, int, *auth.RelayAuthTx, error) {
	if len(targets) == 0 {
		return nil, 0, nil, unavailErrf(string(id), "no live candidate node (circuit open)")
	}
	results := make(chan beginResult, len(targets))
	var claimed atomic.Bool
	launched := 0
	launch := func() {
		node := targets[launched]
		share := len(targets) - launched
		launched++
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			actx, cancel := r.cfg.Budget.Carve(ctx, share)
			defer cancel()
			ch, tx, err := r.beginAuthOn(actx, ctx, node, id)
			if err != nil {
				results <- beginResult{node: node, err: err}
				return
			}
			if claimed.CompareAndSwap(false, true) {
				results <- beginResult{node: node, ch: ch, tx: tx}
				return
			}
			// Lost the claim after succeeding: release the stream.
			tx.Abandon()
		}()
	}
	launch()
	var hedge <-chan time.Time
	if len(targets) > 1 {
		t := time.NewTimer(r.cfg.HedgeDelay)
		defer t.Stop()
		hedge = t.C
	}
	pending := 1
	var firstErr error
	for {
		select {
		case <-hedge:
			hedge = nil
			if launched < len(targets) {
				launch()
				pending++
			}
		case res := <-results:
			if res.err == nil {
				return res.ch, res.node, res.tx, nil
			}
			pending--
			if !auth.Retryable(res.err) {
				// A typed refusal is authoritative for the client no
				// matter which node spoke it: do not wait out (or
				// launch) a hedge.
				if claimed.CompareAndSwap(false, true) {
					return nil, 0, nil, res.err
				}
				return r.drainForWin(results)
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if pending == 0 {
				if launched < len(targets) {
					// The first attempt failed before the hedge timer:
					// fail over immediately.
					launch()
					pending++
					continue
				}
				return nil, 0, nil, firstErr
			}
		case <-ctx.Done():
			if claimed.CompareAndSwap(false, true) {
				return nil, 0, nil, &auth.AuthError{Code: auth.CodeCanceled, ClientID: id, Err: ctx.Err()}
			}
			return r.drainForWin(results)
		}
	}
}

// drainForWin is the claim-race epilogue: the coordinator lost the
// claim CAS, which only a succeeding attempt can win, so a success is
// (or is about to be) buffered in results. Receive until it arrives.
func (r *Router) drainForWin(results chan beginResult) (*crp.Challenge, int, *auth.RelayAuthTx, error) {
	for {
		res := <-results
		if res.err == nil {
			return res.ch, res.node, res.tx, nil
		}
	}
}

// beginAuthOn runs one opening attempt against node and feeds its
// breaker. actx is the carved per-attempt context; parent
// distinguishes caller cancellation from an attempt deadline blown by
// a hung peer.
func (r *Router) beginAuthOn(actx, parent context.Context, node int, id auth.ClientID) (*crp.Challenge, *auth.RelayAuthTx, error) {
	rc, err := r.relay(actx, node)
	if err != nil {
		err = classifyDial(parent, string(id), node, err)
		r.account(node, err)
		return nil, nil, err
	}
	ch, tx, err := rc.BeginAuth(actx, id)
	if err != nil {
		err = classifyAttempt(actx, parent, string(id), err)
		r.account(node, err)
		r.drop(node, rc, err)
		return nil, nil, err
	}
	r.account(node, nil)
	return ch, tx, nil
}

// errPeerDown tags router-synthesized transport failures — the
// evidence stream circuit breakers count. Peer-spoken typed errors
// (even unavailable ones, like a follower momentarily without its
// primary link) deliberately lack the tag: a node that answers frames
// is alive, however unhappy its answer, and tripping its breaker for
// a refusal would cascade one node's hiccup into fleet-wide
// no-candidate outages.
var errPeerDown = errors.New("peer transport failure")

// errConnChurn tags connection-loss failures — retryable like
// errPeerDown, but ambiguous as breaker evidence: a shed connection
// or a lossy accept kills every multiplexed stream on the relay at
// once, and the forced redial produces clean evidence (a dial
// outcome) on the very next attempt.
var errConnChurn = errors.New("relay connection lost")

// transportErrf is a retryable unavailable carrying the errPeerDown
// breaker tag.
func transportErrf(id string, format string, args ...any) error {
	return &auth.AuthError{
		Code:     auth.CodeUnavailable,
		ClientID: auth.ClientID(id),
		Err:      fmt.Errorf("%w: cluster: %w: %s", auth.ErrUnavailable, errPeerDown, fmt.Sprintf(format, args...)),
	}
}

// churnErrf is a retryable unavailable carrying the errConnChurn tag.
func churnErrf(id string, err error) error {
	return &auth.AuthError{
		Code:     auth.CodeUnavailable,
		ClientID: auth.ClientID(id),
		Err:      fmt.Errorf("%w: cluster: %w: %v", auth.ErrUnavailable, errConnChurn, err),
	}
}

// connLoss reports raw errors that mean the connection died under the
// attempt rather than the peer refusing or timing out.
func connLoss(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// classifyAttempt rewrites an attempt error for the retry machinery.
// An expiry of the carved per-attempt deadline while the caller's own
// context is still live is the peer's failure, not the client's — it
// becomes a retryable (and breaker-tagged) unavailable. And any error
// that is not a typed *AuthError is a transport fault by construction
// (a peer that answered at all answers with an error frame, which
// decodes typed): a raw socket error — the pooled relay torn down
// under a concurrent attempt, a deadline blown inside the framing
// layer — must come back retryable, not leak to the client untyped
// and poison the attempt accounting.
func classifyAttempt(actx, parent context.Context, id string, err error) error {
	if err == nil {
		return nil
	}
	if auth.CodeOf(err) == auth.CodeCanceled {
		if actx.Err() != nil && parent.Err() == nil {
			return transportErrf(id, "attempt deadline exceeded: %v", err)
		}
		var ae *auth.AuthError
		if !errors.As(err, &ae) {
			return &auth.AuthError{Code: auth.CodeCanceled, ClientID: auth.ClientID(id), Err: err}
		}
		return err
	}
	var ae *auth.AuthError
	if !errors.As(err, &ae) {
		if connLoss(err) {
			return churnErrf(id, err)
		}
		return transportErrf(id, "relay transport: %v", err)
	}
	return err
}

// classifyDial rewrites a relay-establishment failure: unless the
// caller itself gave up, a connection that cannot be established is
// peer-transport failure whatever the dialer returned.
func classifyDial(parent context.Context, id string, node int, err error) error {
	if auth.CodeOf(err) == auth.CodeCanceled && parent.Err() != nil {
		return &auth.AuthError{Code: auth.CodeCanceled, ClientID: auth.ClientID(id), Err: err}
	}
	return transportErrf(id, "dial node %d: %v", node, err)
}

// account feeds one attempt outcome into node's breaker: a tagged
// transport synthesis — a dial failure, an attempt deadline blown
// against a silent peer, a raw socket fault — counts against the
// peer; a typed protocol answer — even a refusal — proves the node
// alive; caller cancellation is evidence of nothing. A clean mid-
// stream EOF is deliberately ALSO evidence of nothing: the pooled
// relay is shared, so one torn connection fails every concurrent
// stream on it at once, and counting each as a separate strike would
// let a single flaky accept trip the breaker in one event. The
// redial the drop forces produces clean evidence on the next attempt
// either way.
func (r *Router) account(node int, err error) {
	switch {
	case err == nil:
		r.breakers[node].Success()
	case errors.Is(err, errConnChurn) || errors.Is(err, io.EOF):
	case errors.Is(err, errPeerDown):
		r.breakers[node].Failure(time.Now())
	case auth.CodeOf(err) == auth.CodeCanceled:
	default:
		r.breakers[node].Success()
	}
}

// FinishAuth forwards the closing half on the stream the winning
// BeginAuth attempt left open, under its own carved deadline.
func (r *Router) FinishAuth(ctx context.Context, id auth.ClientID, challengeID uint64, resp crp.Response) (auth.AuthVerdict, error) {
	r.mu.Lock()
	p, ok := r.auths[authTxKey{id: id, chID: challengeID}]
	delete(r.auths, authTxKey{id: id, chID: challengeID})
	r.mu.Unlock()
	if !ok {
		return auth.AuthVerdict{}, &auth.AuthError{
			Code:     auth.CodeInvalidRequest,
			ClientID: id,
			Err:      errInvalidNoAuthTx,
		}
	}
	actx, cancel := r.cfg.Budget.Carve(ctx, 1)
	defer cancel()
	v, err := p.tx.Finish(actx, challengeID, resp)
	err = classifyAttempt(actx, ctx, string(id), err)
	r.account(p.node, err)
	return v, err
}

// BeginRemapTx forwards the opening half of a key update. Key updates
// are primary-affine writes: when the owner's breaker is open they
// fail fast with a retryable unavailable instead of hedging — two
// racing remap halves on different nodes could burn reserved pairs
// twice.
func (r *Router) BeginRemapTx(ctx context.Context, id auth.ClientID) (*auth.RemapRequest, error) {
	owner := r.ring.Owner(string(id))
	if !r.breakers[owner].Allow(time.Now()) {
		return nil, unavailErrf(string(id), "node %d circuit open; key updates do not fail over", owner)
	}
	actx, cancel := r.cfg.Budget.Carve(ctx, 1)
	defer cancel()
	rc, err := r.relay(actx, owner)
	if err != nil {
		err = classifyDial(ctx, string(id), owner, err)
		r.account(owner, err)
		return nil, err
	}
	req, tx, err := rc.BeginRemap(actx, id)
	if err != nil {
		err = classifyAttempt(actx, ctx, string(id), err)
		r.account(owner, err)
		r.drop(owner, rc, err)
		return nil, err
	}
	r.account(owner, nil)
	r.mu.Lock()
	r.sweepLocked(time.Now())
	if r.closed {
		r.mu.Unlock()
		tx.Abandon()
		return nil, unavailErrf(string(id), "router closed")
	}
	if old, dup := r.remaps[id]; dup {
		old.tx.Abandon()
	}
	r.remaps[id] = pendingRemapTx{tx: tx, node: owner, at: time.Now()}
	r.mu.Unlock()
	return req, nil
}

// FinishRemapTx forwards the closing half of a key update.
func (r *Router) FinishRemapTx(ctx context.Context, id auth.ClientID, success bool) error {
	r.mu.Lock()
	p, ok := r.remaps[id]
	delete(r.remaps, id)
	r.mu.Unlock()
	if !ok {
		return &auth.AuthError{
			Code:     auth.CodeInvalidRequest,
			ClientID: id,
			Err:      errInvalidNoRemap,
		}
	}
	actx, cancel := r.cfg.Budget.Carve(ctx, 1)
	defer cancel()
	err := p.tx.Finish(actx, success)
	err = classifyAttempt(actx, ctx, string(id), err)
	r.account(p.node, err)
	return err
}

// Close stops the prober, abandons pending transactions, and releases
// the relay pool.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	cancel := r.cancel
	r.cancel = nil
	rcs := make([]*auth.RelayClient, 0, len(r.relays))
	for _, rc := range r.relays {
		rcs = append(rcs, rc)
	}
	r.relays = make(map[int]*auth.RelayClient)
	auths := make([]*auth.RelayAuthTx, 0, len(r.auths))
	for _, p := range r.auths {
		auths = append(auths, p.tx)
	}
	r.auths = make(map[authTxKey]pendingAuthTx)
	remaps := make([]*auth.RelayRemapTx, 0, len(r.remaps))
	for _, p := range r.remaps {
		remaps = append(remaps, p.tx)
	}
	r.remaps = make(map[auth.ClientID]pendingRemapTx)
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	for _, tx := range auths {
		tx.Abandon()
	}
	for _, tx := range remaps {
		tx.Abandon()
	}
	r.wg.Wait()
	for _, rc := range rcs {
		rc.Close()
	}
	return nil
}

// relay returns (dialing if needed) the pooled connection to owner.
// ctx bounds the dial — it is always a carved attempt or probe
// context, so a black-holed peer costs at most one attempt share,
// never an unbounded hang.
func (r *Router) relay(ctx context.Context, owner int) (*auth.RelayClient, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, unavailErrf("", "router closed")
	}
	if rc, ok := r.relays[owner]; ok {
		r.mu.Unlock()
		return rc, nil
	}
	r.mu.Unlock()
	rc, err := r.cfg.Dial(ctx, r.cfg.ClientPeers[owner])
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		rc.Close()
		return nil, unavailErrf("", "router closed")
	}
	if existing, ok := r.relays[owner]; ok {
		r.mu.Unlock()
		rc.Close()
		return existing, nil
	}
	r.relays[owner] = rc
	r.mu.Unlock()
	return rc, nil
}

// drop discards a relay whose transaction failed with a transport
// error, so the next forward redials. Typed protocol refusals keep
// the connection: only transport evidence suggests a dead socket.
func (r *Router) drop(owner int, rc *auth.RelayClient, err error) {
	if !errors.Is(err, errPeerDown) && !errors.Is(err, errConnChurn) && !errors.Is(err, io.EOF) {
		return
	}
	r.mu.Lock()
	if r.relays[owner] == rc {
		delete(r.relays, owner)
	}
	r.mu.Unlock()
	rc.Close()
}

// sweepLocked abandons forwarded transactions whose second half never
// arrived within txTTL. Callers hold r.mu.
func (r *Router) sweepLocked(now time.Time) {
	for k, p := range r.auths {
		if now.Sub(p.at) > txTTL {
			delete(r.auths, k)
			tx := p.tx
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				tx.Abandon()
			}()
		}
	}
	for k, p := range r.remaps {
		if now.Sub(p.at) > txTTL {
			delete(r.remaps, k)
			tx := p.tx
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				tx.Abandon()
			}()
		}
	}
}
