package auth

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/crp"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/wire"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"unavailable", authErrf(CodeUnavailable, "d", "%w: shed", ErrUnavailable), true},
		{"unknown client", authErrf(CodeUnknownClient, "d", "%w: d", ErrUnknownClient), false},
		{"already enrolled", authErr(CodeAlreadyEnrolled, "d", ErrAlreadyEnrolled), false},
		{"unknown challenge", authErr(CodeUnknownChallenge, "d", ErrUnknownChallenge), false},
		{"exhausted", authErr(CodeExhausted, "d", ErrExhausted), false},
		{"no remap pending", authErr(CodeNoRemapPending, "d", ErrNoRemapPending), false},
		{"bad plane", authErr(CodeBadPlane, "d", ErrBadPlane), false},
		{"invalid request", authErrf(CodeInvalidRequest, "d", "auth: nope"), false},
		{"canceled", &AuthError{Code: CodeCanceled, Err: context.Canceled}, false},
		{"internal", authErrf(CodeInternal, "d", "auth: boom"), false},
		{"eof", io.EOF, true},
		{"unexpected eof", io.ErrUnexpectedEOF, true},
		{"closed pipe", io.ErrClosedPipe, true},
		{"net closed", net.ErrClosed, true},
		{"econnreset", syscall.ECONNRESET, true},
		{"epipe", syscall.EPIPE, true},
		{"econnrefused", syscall.ECONNREFUSED, true},
		{"injected drop", fault.ErrInjectedDrop, true},
		{"plain error", errorsNew("mystery"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryableNeverRetriesBurnedChallenge pins the non-retryability
// of every protocol verdict a response-bearing transaction can end
// with: once a response has been revealed, no error the server sends
// about it may trigger a replay.
func TestRetryableNeverRetriesBurnedChallenge(t *testing.T) {
	burnedVerdicts := []error{
		authErr(CodeUnknownChallenge, "d", ErrUnknownChallenge),
		authErr(CodeExhausted, "d", ErrExhausted),
		authErrf(CodeInvalidRequest, "d", "auth: response shape"),
		authErrf(CodeInternal, "d", "auth: verify failed"),
	}
	for _, err := range burnedVerdicts {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true; a burned-challenge verdict must never be retried", err)
		}
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	seq := func() []time.Duration {
		r := rng.New(p.Seed)
		var out []time.Duration
		for n := 1; n <= 9; n++ {
			out = append(out, p.Delay(n, r))
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retry %d: delay not deterministic: %v vs %v", i+1, a[i], b[i])
		}
		if a[i] > p.MaxDelay {
			t.Fatalf("retry %d: delay %v exceeds cap %v", i+1, a[i], p.MaxDelay)
		}
		if a[i] <= 0 {
			t.Fatalf("retry %d: non-positive delay %v", i+1, a[i])
		}
	}
	// Growth: late delays sit near the cap despite jitter.
	if a[8] < p.MaxDelay/4 {
		t.Fatalf("final delay %v did not grow toward the %v cap", a[8], p.MaxDelay)
	}
}

// Clients left on the zero policy must not back off in lockstep: a
// fleet shed at the same instant would retry together again.
func TestZeroSeedClientsJitterApart(t *testing.T) {
	delays := func() []time.Duration {
		rc := NewResilientClient("nowhere:0", RetryPolicy{}, Dial)
		var out []time.Duration
		for n := 1; n <= 8; n++ {
			out = append(out, rc.policy.Delay(n, rc.rand))
		}
		return out
	}
	a, b := delays(), delays()
	for i := range a {
		if a[i] == b[i] {
			t.Fatalf("retry %d: two zero-seed clients drew the same %v delay", i+1, a[i])
		}
	}
}

// startWireFaulty serves srv behind a fault-injecting listener.
func startWireFaulty(t *testing.T, ws *WireServer, plan fault.ConnPlan) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.NewListener(l, plan)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ws.Serve(ctx, fl)
	}()
	return l.Addr().String(), func() {
		ws.Close()
		<-done
	}
}

// fastPolicy keeps retry latency negligible in tests.
func fastPolicy() RetryPolicy {
	return RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 11}
}

// responseRecorder records the challenge id of every response frame
// a client writes, parsing frames across Write calls once the preamble
// has passed. With cut set it cuts the connection at the first
// response — after the client revealed its response, before the
// verdict can arrive. Each write is parsed and recorded before it is
// sent, and the cut takes effect for reads before the response leaves:
// the client sees neither the verdict nor an answer whose id has not
// been recorded yet.
type responseRecorder struct {
	net.Conn
	mu      *sync.Mutex
	ids     *[]uint64
	cut     bool
	severed atomic.Bool // set once the cut response is about to leave
	skip    int         // preamble bytes still to pass over
	pending []byte      // written bytes not yet parsed into whole frames
}

func (c *responseRecorder) Write(p []byte) (int, error) {
	c.pending = append(c.pending, p...)
	k := min(c.skip, len(c.pending))
	c.pending, c.skip = c.pending[k:], c.skip-k
	responded := false
	for len(c.pending) >= wire.HeaderLen {
		h, herr := wire.ParseHeader(c.pending)
		if herr != nil || len(c.pending) < wire.HeaderLen+h.Len {
			break
		}
		if h.Op == wire.OpResponse {
			var resp crp.Response
			if id, derr := wire.DecodeResponse(c.pending[wire.HeaderLen:wire.HeaderLen+h.Len], &resp); derr == nil {
				c.mu.Lock()
				*c.ids = append(*c.ids, id)
				c.mu.Unlock()
				responded = true
			}
		}
		c.pending = c.pending[wire.HeaderLen+h.Len:]
	}
	cutting := responded && c.cut
	if cutting {
		c.severed.Store(true)
	}
	n, err := c.Conn.Write(p)
	if cutting {
		c.Conn.Close()
	}
	return n, err
}

// Read fails once the cut began, even for a read that was already
// waiting when the response left: whatever it returns, the verdict
// included, is dropped.
func (c *responseRecorder) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.severed.Load() {
		return 0, net.ErrClosed
	}
	return n, err
}

// TestResilientRetryIsFreshTransaction is the burned-challenge
// invariant end to end: the first attempt's verdict is lost AFTER the
// response was revealed, and the retry must answer a brand-new
// challenge rather than replaying the burned one.
func TestResilientRetryIsFreshTransaction(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	addr, stop := startWire(t, srv)
	defer stop()

	var mu sync.Mutex
	var answered []uint64
	dials := 0
	dial := func(ctx context.Context, addr string) (*WireClient, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		dials++
		return NewWireClient(&responseRecorder{Conn: conn, mu: &mu, ids: &answered, cut: dials == 1, skip: wire.PreambleLen})
	}

	rc := NewResilientClient(addr, fastPolicy(), dial)
	defer rc.Close()
	ok, err := rc.Authenticate(ctx, resp)
	if err != nil {
		t.Fatalf("authenticate: %v", err)
	}
	if !ok {
		t.Fatal("genuine client rejected")
	}
	mu.Lock()
	got := append([]uint64(nil), answered...)
	mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("client answered %d challenges, want 2 (burned + fresh): %v", len(got), got)
	}
	if got[0] == got[1] {
		t.Fatalf("retry replayed burned challenge %d; every attempt must answer a fresh challenge", got[0])
	}
	if got := rc.Stats().Retries; got != 1 {
		t.Fatalf("stats.Retries = %d, want 1", got)
	}
}

func TestWireServerShedsAtMaxInFlight(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	ws, err := NewWireServerConfig(srv, WireConfig{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startWireFaulty(t, ws, fault.ConnPlan{})
	defer stop()

	// Occupy the only transaction slot directly.
	release := ws.acquire()
	if release == nil {
		t.Fatal("could not take the in-flight slot")
	}

	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	_, err = wc.Authenticate(ctx, resp)
	if CodeOf(err) != CodeUnavailable {
		t.Fatalf("saturated server answered %v, want CodeUnavailable", err)
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("shed error %v does not satisfy errors.Is(ErrUnavailable)", err)
	}
	if !Retryable(err) {
		t.Fatal("shed error must be retryable")
	}

	// A resilient client rides out the shedding window: the slot frees
	// while it is backing off.
	go func() {
		time.Sleep(10 * time.Millisecond)
		release()
	}()
	rc := NewResilientClient(addr, fastPolicy(), Dial)
	defer rc.Close()
	ok, err := rc.Authenticate(ctx, resp)
	if err != nil || !ok {
		t.Fatalf("resilient client under shedding: ok=%v err=%v (stats %+v)", ok, err, rc.Stats())
	}
	if rc.Stats().Unavailable == 0 {
		t.Fatal("resilient client never saw the shed window")
	}
}

// staleBeginBackend forces the interleaving in which a key-update
// begin outlives its connection: the first BeginRemapTx (whose client
// has already hung up) is held until the retry's begin has returned,
// and every FinishRemapTx is held until that stale begin has run.
type staleBeginBackend struct {
	TxBackend
	mu           sync.Mutex
	begins       int
	firstEntered chan struct{} // closed when the first begin arrives
	retryBegun   chan struct{} // closed when the second begin has returned
	staleDone    chan struct{} // closed when the first begin has returned
}

func (b *staleBeginBackend) BeginRemapTx(ctx context.Context, id ClientID) (*RemapRequest, error) {
	b.mu.Lock()
	b.begins++
	n := b.begins
	b.mu.Unlock()
	switch n {
	case 1:
		close(b.firstEntered)
		<-b.retryBegun
		defer close(b.staleDone)
	case 2:
		defer close(b.retryBegun)
	}
	return b.TxBackend.BeginRemapTx(ctx, id)
}

func (b *staleBeginBackend) FinishRemapTx(ctx context.Context, id ClientID, success bool) error {
	<-b.staleDone
	return b.TxBackend.FinishRemapTx(ctx, id, success)
}

// hangupConn closes the connection as soon as a write carries bytes
// past the preamble, i.e. right after the first frame leaves.
type hangupConn struct {
	net.Conn
	written int
}

func (c *hangupConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += n
	if c.written > wire.PreambleLen {
		c.Conn.Close()
	}
	return n, err
}

// TestResilientRemapSurvivesStaleBegin pins the key-update race a
// retry opens: the server still runs the begin of a connection the
// client has given up on, and that stale begin lands between the
// retry's begin and its commit. A Remap that returns nil must leave
// the server holding the key the device derived.
func TestResilientRemapSurvivesStaleBegin(t *testing.T) {
	srv, resp := wireFixture(t, 680, 700)
	be := &staleBeginBackend{
		TxBackend:    LocalBackend(srv),
		firstEntered: make(chan struct{}),
		retryBegun:   make(chan struct{}),
		staleDone:    make(chan struct{}),
	}
	ws, err := NewWireServerBackend(be, WireConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startWireFaulty(t, ws, fault.ConnPlan{})
	defer stop()

	dials := 0
	rc := NewResilientClient(addr, fastPolicy(), func(ctx context.Context, addr string) (*WireClient, error) {
		dials++
		if dials > 1 {
			// Retry only once the dead connection's begin is running.
			select {
			case <-be.firstEntered:
			case <-time.After(10 * time.Second):
				return nil, authErrf(CodeInternal, "", "the first key-update begin never reached the backend")
			}
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if dials == 1 {
			return NewWireClient(&hangupConn{Conn: conn})
		}
		return NewWireClient(conn)
	})
	defer rc.Close()
	if err := rc.Remap(ctx, resp); err != nil {
		t.Fatalf("remap: %v (stats %+v)", err, rc.Stats())
	}
	srvKey, err := srv.CurrentKey(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if srvKey != resp.Key() {
		t.Fatal("Remap succeeded but the server committed a key the device never derived")
	}
	ok, err := rc.Authenticate(ctx, resp)
	if err != nil || !ok {
		t.Fatalf("post-remap auth: ok=%v err=%v", ok, err)
	}
}

func TestWireConfigValidate(t *testing.T) {
	if err := (WireConfig{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	bad := []WireConfig{
		{IdleTimeout: -time.Second},
		{MaxInFlight: -1},
	}
	for _, cfg := range bad {
		if _, err := NewWireServerConfig(nil, cfg); err == nil {
			t.Errorf("config %+v accepted, want validation error", cfg)
		} else if CodeOf(err) != CodeInvalidRequest {
			t.Errorf("config %+v rejected with %v, want CodeInvalidRequest", cfg, err)
		}
	}
}

func TestResilientExhaustionWrapsLastError(t *testing.T) {
	dial := func(ctx context.Context, addr string) (*WireClient, error) {
		return nil, syscall.ECONNREFUSED
	}
	rc := NewResilientClient("nowhere:0", RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Seed:        1,
	}, dial)
	_, err := rc.Authenticate(ctx, nil)
	if err == nil {
		t.Fatal("exhausted retries returned nil")
	}
	var ae *AuthError
	if !errors.As(err, &ae) || ae.Code != CodeUnavailable {
		t.Fatalf("exhaustion error %v is not a typed CodeUnavailable AuthError", err)
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("exhaustion error %v lost its cause chain", err)
	}
	if got := rc.Stats().Attempts; got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}
