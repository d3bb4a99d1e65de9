package auth

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/rng"
)

// Self-healing wire client: per-transaction retries with capped
// exponential backoff and jitter on top of WireClient. Every retry is
// a complete fresh transaction — the underlying client never resumes
// a half-finished exchange, so a challenge whose response has been
// revealed (burned) is never replayed; retries are gated on
// Retryable's classification of the failure.

// RetryPolicy tunes the retry loop. The zero value gets the
// documented defaults.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts per transaction (first try
	// included). 0 means 10.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt. 0 means
	// 10 ms.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff. 0 means 2 s.
	MaxDelay time.Duration
	// Multiplier grows the delay per attempt. 0 means 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomised
	// (full-jitter style over [1-Jitter, 1] of the delay), decorrelating
	// a fleet that got shed at the same instant. 0 means 0.5; negative
	// disables jitter.
	Jitter float64
	// Seed drives the jitter stream, making a client's retry timing
	// reproducible. 0 means a fixed default seed.
	Seed uint64
}

// WithDefaults fills zero fields with the documented defaults.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 10
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Seed == 0 {
		p.Seed = 0x5e11f5ed
	}
	return p
}

// Delay computes the backoff before attempt n (n >= 1 is the first
// retry): capped exponential growth with jitter drawn from r.
// Exported so other retry loops — the cluster follower's redial, for
// one — reuse the policy shape instead of growing their own backoff
// arithmetic. Call WithDefaults (or fill every field) first; Delay
// does not apply defaults itself.
func (p RetryPolicy) Delay(n int, r *rng.Rand) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		frac := 1 - p.Jitter*r.Float64()
		d *= frac
	}
	return time.Duration(d)
}

// RetryStats counts what the retry loop did; read it after traffic to
// see how hard the wire fought back.
type RetryStats struct {
	// Attempts is the total number of transaction attempts.
	Attempts uint64
	// Retries is how many attempts were repeats after a retryable
	// failure.
	Retries uint64
	// Reconnects is how many attempts had to redial first.
	Reconnects uint64
	// Unavailable counts attempts rejected by server load shedding or
	// transient journal failure (CodeUnavailable).
	Unavailable uint64
}

// ResilientClient is a WireClient that survives a hostile wire: it
// redials dropped connections and retries failed transactions with
// capped exponential backoff, but only when Retryable says the
// failure is transient — a protocol verdict (burned challenge,
// unknown client, rejection) is returned immediately and never
// retried.
//
// The client is safe for concurrent use: concurrent transactions
// pipeline on one shared connection, each on its own stream.
type ResilientClient struct {
	addr   string
	policy RetryPolicy
	dial   func(ctx context.Context, addr string) (*WireClient, error)

	mu   sync.Mutex
	rand *rng.Rand
	wc   *WireClient // live connection, nil between failures
	// gen identifies the connection in wc: a failed attempt only
	// drops the connection it actually used, never a replacement a
	// concurrent attempt already dialled.
	gen   uint64
	stats RetryStats
}

// DialResilient connects to a WireServer with retry behaviour. A
// retryable failure of the initial dial does not fail the
// constructor, so a server that is briefly unreachable is retried by
// the first transaction under the same policy.
func DialResilient(ctx context.Context, addr string, policy RetryPolicy) (*ResilientClient, error) {
	rc := NewResilientClient(addr, policy, Dial)
	if _, _, err := rc.conn(ctx); err != nil && !Retryable(err) {
		return nil, err
	}
	// A retryable dial failure is tolerated here: the first
	// transaction will keep trying under the policy.
	return rc, nil
}

// NewResilientClient builds a client around an explicit dial function
// without connecting; tests inject fault-wrapped dialers here.
func NewResilientClient(addr string, policy RetryPolicy, dial func(ctx context.Context, addr string) (*WireClient, error)) *ResilientClient {
	policy = policy.WithDefaults()
	return &ResilientClient{
		addr:   addr,
		policy: policy,
		dial:   dial,
		rand:   rng.New(policy.Seed),
	}
}

// Stats returns a snapshot of the retry counters so far.
func (rc *ResilientClient) Stats() RetryStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stats
}

// Close releases the current connection, if any.
func (rc *ResilientClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.wc == nil {
		return nil
	}
	err := rc.wc.Close()
	rc.wc = nil
	rc.gen++
	return err
}

// conn returns the live connection and its generation, redialling if
// the last attempt tore it down. The dial happens under the lock:
// concurrent attempts share the one replacement instead of racing to
// dial several.
func (rc *ResilientClient) conn(ctx context.Context) (*WireClient, uint64, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.wc == nil {
		rc.stats.Reconnects++
		wc, err := rc.dial(ctx, rc.addr)
		if err != nil {
			return nil, rc.gen, err
		}
		rc.wc = wc
	}
	return rc.wc, rc.gen, nil
}

// drop discards the connection of generation gen after a transport
// fault; a newer connection (already redialled by a concurrent
// attempt) is left alone.
func (rc *ResilientClient) drop(gen uint64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.wc == nil || gen != rc.gen {
		return
	}
	rc.wc.Close()
	rc.wc = nil
	rc.gen++
}

// backoff computes the next delay under the lock (the jitter stream
// is shared) and sleeps outside it.
func (rc *ResilientClient) backoff(ctx context.Context, attempt int) error {
	rc.mu.Lock()
	rc.stats.Retries++
	d := rc.policy.Delay(attempt-1, rc.rand)
	rc.mu.Unlock()
	return sleepCtx(ctx, d)
}

// do runs op as a fresh transaction per attempt until it succeeds,
// fails terminally, or the policy is exhausted.
func (rc *ResilientClient) do(ctx context.Context, op func(*WireClient) error) error {
	var last error
	for attempt := 1; attempt <= rc.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := rc.backoff(ctx, attempt); err != nil {
				return err
			}
		}
		rc.mu.Lock()
		rc.stats.Attempts++
		rc.mu.Unlock()
		wc, gen, err := rc.conn(ctx)
		if err == nil {
			err = op(wc)
		}
		if err == nil {
			return nil
		}
		last = err
		if !Retryable(err) {
			return err
		}
		if CodeOf(err) == CodeUnavailable {
			rc.mu.Lock()
			rc.stats.Unavailable++
			rc.mu.Unlock()
			if !errors.Is(err, io.EOF) {
				// The server answered a shed response, so the
				// connection is healthy: keep it instead of redialling
				// into the accept queue. (An EOF in the chain means
				// the server hung up — reconnect below.)
				continue
			}
		}
		rc.drop(gen)
	}
	return &AuthError{
		Code: CodeUnavailable,
		Err:  fmt.Errorf("%w: %d attempts exhausted, last: %w", ErrUnavailable, rc.policy.MaxAttempts, last),
	}
}

// Authenticate runs one authentication transaction with retries and
// returns the server's verdict.
func (rc *ResilientClient) Authenticate(ctx context.Context, r *Responder) (bool, error) {
	ok, _, err := rc.AuthenticateSession(ctx, r)
	return ok, err
}

// AuthenticateSession authenticates with retries and, on acceptance,
// returns the established session key. Each attempt is a whole new
// transaction with a fresh challenge — a response that already left
// the device is never re-sent.
func (rc *ResilientClient) AuthenticateSession(ctx context.Context, r *Responder) (bool, [32]byte, error) {
	var ok bool
	var key [32]byte
	err := rc.do(ctx, func(wc *WireClient) error {
		var err error
		ok, key, err = wc.AuthenticateSession(ctx, r)
		return err
	})
	return ok, key, err
}

// Remap runs one key-update transaction with retries. Safe to retry
// because the reserved-plane protocol is convergent: an interrupted
// rotation either never committed (both sides keep the old key) or
// committed after the client already derived the same key, and the
// retry simply rotates again.
func (rc *ResilientClient) Remap(ctx context.Context, r *Responder) error {
	return rc.do(ctx, func(wc *WireClient) error {
		return wc.Remap(ctx, r)
	})
}

// sleepCtx waits d or until ctx is done, converting cancellation into
// the typed taxonomy.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctxErr(ctx, "")
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctxErr(ctx, "")
	case <-t.C:
		return nil
	}
}
